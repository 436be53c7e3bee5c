// Package server is the trace service: a local HTTP/JSON API over one
// trace store, multiplexing every client's record, replay, segment-replay,
// and analyze work through the shared priority scheduler (internal/sched).
// It is the layer that turns the record-once/replay-many toolbox into a
// multi-client system — one machine's recording and analysis capacity,
// shared, with backpressure instead of overload.
//
// Surface (all JSON; cmd/ir-served serves it):
//
//	GET    /api/v1/traces            store inventory (scanned, not decoded)
//	GET    /api/v1/traces/{name}     one trace's header and frame statistics
//	DELETE /api/v1/traces/{name}     remove a trace; 409 while a job holds it
//	POST   /api/v1/traces/{name}/compact  submit a low-priority compact job
//	POST   /api/v1/gc                run one synchronous retention pass
//	POST   /api/v1/jobs              submit a job; 202 Accepted, 429 when the
//	                                 queue is full, 503 while draining
//	GET    /api/v1/jobs              every retained job, by ID
//	GET    /api/v1/jobs/{id}         one job's snapshot (result once done)
//	GET    /api/v1/jobs/{id}/stream  NDJSON stream of state transitions
//	GET    /api/v1/jobs/{id}/timeline  the job's span timeline as Chrome
//	                                 trace-event JSON (chrome://tracing)
//	DELETE /api/v1/jobs/{id}         cancel (queued: immediate; running: the
//	                                 job's context is canceled and the replay
//	                                 layers unwind at their next gated point)
//	GET    /api/v1/debug/spans       recent HTTP request spans, Chrome JSON
//	GET    /metrics                  Prometheus text: scheduler + store state,
//	                                 route latency, and the process-wide
//	                                 obs.Default() histograms
//	GET    /healthz                  liveness
//
// Job state machine and backpressure rules are documented in DESIGN.md
// ("The trace service") and docs/ARCHITECTURE.md.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// Config parameterizes a Server.
type Config struct {
	// Store is the trace directory served; required.
	Store *trace.Store
	// Workers bounds concurrently executing jobs (<= 0: GOMAXPROCS).
	Workers int
	// QueueDepth bounds waiting jobs; submissions past it get 429
	// (<= 0: sched.DefaultQueueDepth).
	QueueDepth int
	// GC is the store retention policy. A zero policy disables the
	// background pass (POST /api/v1/gc still runs manual passes, which are
	// then no-op scans). Pinned traces — including those the daemon pins
	// itself when an analyze job surfaces findings — are never removed.
	GC trace.GCPolicy
	// GCInterval is the background GC cadence; <= 0 with a non-zero policy
	// selects DefaultGCInterval.
	GCInterval time.Duration
}

// DefaultGCInterval is the background retention pass cadence when a GC
// policy is configured without an explicit interval.
const DefaultGCInterval = time.Minute

// Server owns the scheduler and the HTTP handler. It implements
// http.Handler; plug it into any http.Server (cmd/ir-served does).
type Server struct {
	store *trace.Store
	sched *sched.Scheduler
	mux   *http.ServeMux
	start time.Time

	// eventsReplayed counts recorded events re-executed by completed
	// replay/segment/analyze jobs, plus events recorded by record jobs —
	// the daemon's throughput numerator.
	eventsReplayed atomic.Int64

	// recording reserves trace names with an in-flight record or compact
	// job (both rewrite the named file): two concurrent writers of one name
	// would truncate and interleave writes into the same store file. The
	// reservation is taken when the job starts executing and checked at
	// submission for an early 409. reading counts running jobs replaying or
	// analyzing a name; together they are the "held" state that blocks
	// DELETE /traces/{name} and shields a trace from a GC pass.
	recMu     sync.Mutex
	recording map[string]struct{}
	reading   map[string]int

	// GC state: the configured policy, the background loop's stop channel,
	// and the cumulative reclaim counters /metrics exports.
	gcPolicy    trace.GCPolicy
	gcStop      chan struct{}
	gcStopOnce  sync.Once
	gcRuns      atomic.Int64
	gcReclaimed atomic.Int64

	// Telemetry: the /metrics registry, the bounded ring of recent HTTP
	// request spans, and the per-job span recorders the timeline endpoint
	// serves (FIFO-bounded at maxTimelines; see telemetry.go).
	met       *serverMetrics
	reqSpans  *obs.Recorder
	tlMu      sync.Mutex
	timelines map[uint64]*obs.Recorder
	tlOrder   []uint64
}

func (s *Server) tryReserveRecord(name string) bool {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	if _, busy := s.recording[name]; busy {
		return false
	}
	s.recording[name] = struct{}{}
	return true
}

func (s *Server) releaseRecord(name string) {
	s.recMu.Lock()
	delete(s.recording, name)
	s.recMu.Unlock()
}

func (s *Server) recordHeld(name string) bool {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	_, busy := s.recording[name]
	return busy
}

// holdRead marks a running job as consuming the named trace; the returned
// func releases it.
func (s *Server) holdRead(name string) func() {
	s.recMu.Lock()
	s.reading[name]++
	s.recMu.Unlock()
	var once sync.Once
	return func() {
		once.Do(func() {
			s.recMu.Lock()
			if s.reading[name]--; s.reading[name] <= 0 {
				delete(s.reading, name)
			}
			s.recMu.Unlock()
		})
	}
}

// held reports whether any running job — writer or reader — is using the
// named trace.
func (s *Server) held(name string) bool {
	s.recMu.Lock()
	defer s.recMu.Unlock()
	_, rec := s.recording[name]
	return rec || s.reading[name] > 0
}

// New builds a Server and starts its worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, errors.New("server: Config.Store is required")
	}
	s := &Server{
		store:     cfg.Store,
		sched:     sched.New(sched.Options{Workers: cfg.Workers, QueueDepth: cfg.QueueDepth}),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		recording: make(map[string]struct{}),
		reading:   make(map[string]int),
		gcPolicy:  cfg.GC,
		gcStop:    make(chan struct{}),
		met:       newServerMetrics(),
		reqSpans:  obs.NewRecorder(1024),
		timelines: make(map[uint64]*obs.Recorder),
	}
	s.route("GET /api/v1/traces", "traces", s.handleTraces)
	s.route("GET /api/v1/traces/{name}", "trace", s.handleTrace)
	s.route("DELETE /api/v1/traces/{name}", "trace_delete", s.handleDeleteTrace)
	s.route("POST /api/v1/traces/{name}/compact", "trace_compact", s.handleCompactTrace)
	s.route("POST /api/v1/gc", "gc", s.handleGC)
	s.route("POST /api/v1/jobs", "jobs_submit", s.handleSubmit)
	s.route("GET /api/v1/jobs", "jobs", s.handleJobs)
	s.route("GET /api/v1/jobs/{id}", "job", s.handleJob)
	s.route("GET /api/v1/jobs/{id}/stream", "job_stream", s.handleJobStream)
	s.route("GET /api/v1/jobs/{id}/timeline", "job_timeline", s.handleJobTimeline)
	s.route("DELETE /api/v1/jobs/{id}", "job_cancel", s.handleCancel)
	s.route("GET /api/v1/debug/spans", "debug_spans", s.handleDebugSpans)
	s.route("GET /metrics", "metrics", s.handleMetrics)
	s.route("GET /healthz", "healthz", s.handleHealthz)
	if cfg.GC.MaxBytes > 0 || cfg.GC.MaxAge > 0 {
		interval := cfg.GCInterval
		if interval <= 0 {
			interval = DefaultGCInterval
		}
		go s.gcLoop(interval)
	}
	return s, nil
}

// ServeHTTP dispatches to the API routes.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Scheduler exposes the job scheduler (tests, the daemon's drain path).
func (s *Server) Scheduler() *sched.Scheduler { return s.sched }

// Drain stops accepting jobs and the GC loop, lets accepted work finish
// (canceling it if ctx expires first), and returns when every worker
// goroutine exited.
func (s *Server) Drain(ctx context.Context) error {
	s.gcStopOnce.Do(func() { close(s.gcStop) })
	return s.sched.Drain(ctx)
}

// gcLoop runs the configured retention policy at the configured cadence
// until Drain.
func (s *Server) gcLoop(interval time.Duration) {
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			s.runGC()
		case <-s.gcStop:
			return
		}
	}
}

// runGC executes one retention pass, shielding traces running jobs hold,
// and feeds the cumulative counters /metrics exports.
func (s *Server) runGC() (trace.GCStats, error) {
	pol := s.gcPolicy
	pol.Keep = s.held
	stats, err := s.store.GC(pol)
	if err != nil {
		return stats, err
	}
	s.gcRuns.Add(1)
	s.gcReclaimed.Add(stats.ReclaimedBytes)
	return stats, nil
}

// --- traces ---

// TraceEntry is the JSON shape of one store entry — shared by the
// daemon's /traces endpoints and `ir-trace ls -json`, so the two surfaces
// cannot drift field by field.
type TraceEntry struct {
	Name        string `json:"name"`
	Path        string `json:"path"`
	App         string `json:"app,omitempty"`
	Module      string `json:"module,omitempty"`
	Version     int    `json:"version,omitempty"`
	Epochs      int    `json:"epochs"`
	Events      int64  `json:"events"`
	Checkpoints int    `json:"checkpoints"`
	Keyframes   int    `json:"keyframes"`
	Bytes       int64  `json:"bytes"`
	Complete    bool   `json:"complete"`
	// Indexed reports whether the statistics came from the index footer.
	Indexed bool   `json:"indexed"`
	Error   string `json:"error,omitempty"`
}

// NewTraceEntry converts a store entry to its JSON shape.
func NewTraceEntry(e trace.Entry) TraceEntry {
	out := TraceEntry{
		Name:        e.Name,
		Path:        e.Path,
		App:         e.Header.App,
		Version:     e.Header.Version,
		Epochs:      e.Epochs,
		Events:      e.Events,
		Checkpoints: e.Checkpoints,
		Keyframes:   e.Keyframes,
		Bytes:       e.Size,
		Complete:    e.Complete,
		Indexed:     e.Indexed,
	}
	if e.Header.ModuleHash != 0 {
		out.Module = fmt.Sprintf("%016x", e.Header.ModuleHash)
	}
	if e.Err != nil {
		out.Error = e.Err.Error()
	}
	return out
}

func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	entries, err := s.store.List()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	out := make([]TraceEntry, len(entries))
	for i, e := range entries {
		out[i] = NewTraceEntry(e)
	}
	writeJSON(w, http.StatusOK, map[string]any{"traces": out})
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	entry, err := s.store.Entry(r.PathValue("name"))
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, NewTraceEntry(entry))
}

// handleDeleteTrace removes a stored trace (and its pin). 409 while any
// running job holds the name — a record/compact writer or a replay/analyze
// reader. The held check and the remove do not exchange a lock with job
// startup; the residual race is harmless (a reader that wins it keeps its
// open descriptor, POSIX semantics).
func (s *Server) handleDeleteTrace(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if s.held(name) {
		httpError(w, http.StatusConflict, fmt.Errorf("trace %q is held by a running job", name))
		return
	}
	if err := s.store.Remove(name); err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, fs.ErrNotExist) {
			status = http.StatusNotFound
		}
		httpError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"removed": name})
}

// handleCompactTrace submits a compact job for the named trace — low
// priority unless the (optional) body raises it, so housekeeping yields
// the worker pool to recording and analysis.
func (s *Server) handleCompactTrace(w http.ResponseWriter, r *http.Request) {
	var body struct {
		Priority string `json:"priority"`
	}
	if err := json.NewDecoder(r.Body).Decode(&body); err != nil && !errors.Is(err, io.EOF) {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad compact request: %w", err))
		return
	}
	if body.Priority == "" {
		body.Priority = "low"
	}
	s.submit(w, &JobRequest{
		Kind:     "compact",
		Trace:    r.PathValue("name"),
		Priority: body.Priority,
	})
}

// handleGC runs one synchronous retention pass and reports it.
func (s *Server) handleGC(w http.ResponseWriter, r *http.Request) {
	stats, err := s.runGC()
	if err != nil {
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusOK, stats)
}

// --- jobs ---

// JobRequest is the POST /api/v1/jobs body. Kind selects the work; the
// remaining fields parameterize it (unused ones are ignored).
type JobRequest struct {
	// Kind: "record", "replay", "segment-replay", "analyze", or "compact".
	Kind string `json:"kind"`
	// Priority: "low", "normal" (default), or "high".
	Priority string `json:"priority,omitempty"`

	// Trace names the stored recording (replay / segment-replay / analyze).
	Trace string `json:"trace,omitempty"`
	// Analyzers is the analyze job's comma-separated analyzer list
	// (default "race,leak").
	Analyzers string `json:"analyzers,omitempty"`
	// MaxReplays bounds the divergence search (0 = default).
	MaxReplays int `json:"max_replays,omitempty"`
	// NoDelay disables randomized delays on divergence retries.
	NoDelay bool `json:"no_delay,omitempty"`
	// Workers bounds a segment-replay or segmented-analyze job's internal
	// fan-out (0 = GOMAXPROCS). Other kinds occupy exactly one scheduler
	// slot.
	Workers int `json:"workers,omitempty"`
	// Segments runs an analyze job segment-parallel: the trace splits at its
	// checkpoint frames, segments replay concurrently with observation tapes
	// attached, and a sequential fold reproduces the whole-trace findings
	// (trace.AnalyzeSegments). Per-segment stage rows land in the result's
	// timing breakdown. Ignored for other kinds.
	Segments bool `json:"segments,omitempty"`

	// Record-job parameters.
	Record RecordRequest `json:"record"`
}

// ReplayResult is a replay or analyze job's result payload.
type ReplayResult struct {
	Trace    string `json:"trace"`
	Matched  bool   `json:"matched"`
	Attempts int    `json:"attempts"`
	Events   int64  `json:"events"`
	// Fault is a reproduced recorded fault (a success, not an error).
	Fault  string     `json:"fault,omitempty"`
	WallNS int64      `json:"wall_ns"`
	Timing *JobTiming `json:"timing,omitempty"`
}

// AnalyzeJobResult extends ReplayResult with the findings. Pinned reports
// that the daemon pinned the trace because the run surfaced findings — the
// reproducing evidence is shielded from retention GC until an operator
// unpins it.
type AnalyzeJobResult struct {
	ReplayResult
	Findings []analysis.Finding `json:"findings"`
	Pinned   bool               `json:"pinned,omitempty"`
}

// SegmentReplayResult is a segment-replay job's result payload.
type SegmentReplayResult struct {
	Trace    string     `json:"trace"`
	Segments int        `json:"segments"`
	Matched  int        `json:"matched"`
	Events   int64      `json:"events"`
	WallNS   int64      `json:"wall_ns"`
	Timing   *JobTiming `json:"timing,omitempty"`
}

// CompactResult is a compact job's result payload.
type CompactResult struct {
	Trace       string     `json:"trace"`
	OldBytes    int64      `json:"old_bytes"`
	NewBytes    int64      `json:"new_bytes"`
	Epochs      int        `json:"epochs"`
	Checkpoints int        `json:"checkpoints"`
	WallNS      int64      `json:"wall_ns"`
	Timing      *JobTiming `json:"timing,omitempty"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var req JobRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad job request: %w", err))
		return
	}
	s.submit(w, &req)
}

// submit validates, builds, and enqueues one job request, writing the
// HTTP response — shared by POST /jobs and the per-trace compact route.
func (s *Server) submit(w http.ResponseWriter, req *JobRequest) {
	prio, err := sched.ParsePriority(req.Priority)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	job, tel, err := s.buildJob(req)
	if err != nil {
		status := http.StatusBadRequest
		switch {
		case errors.Is(err, errNoSuchTrace):
			status = http.StatusNotFound
		case errors.Is(err, errConflict):
			status = http.StatusConflict
		}
		httpError(w, status, err)
		return
	}
	job.Priority = prio
	job.Kind = req.Kind
	info, err := s.sched.Submit(*job)
	switch {
	case errors.Is(err, sched.ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		httpError(w, http.StatusTooManyRequests, err)
		return
	case errors.Is(err, sched.ErrDraining):
		httpError(w, http.StatusServiceUnavailable, err)
		return
	case err != nil:
		httpError(w, http.StatusInternalServerError, err)
		return
	}
	s.putTimeline(info.ID, tel.rec)
	writeJSON(w, http.StatusAccepted, info)
}

var (
	errNoSuchTrace = errors.New("no such trace")
	errConflict    = errors.New("conflict")
)

// buildJob validates a request eagerly — a bad trace name or analyzer list
// fails the submission, not the job — and returns the scheduler job whose
// closure runs it, plus the telemetry capsule submit registers under the
// job ID for the timeline endpoint. Every closure threads its context into
// the replay runtime through core.Options.Interrupt, so DELETE cancels
// mid-execution, and opens a root span covering queue wait + execution.
func (s *Server) buildJob(req *JobRequest) (*sched.Job, *jobTel, error) {
	switch req.Kind {
	case "record":
		rr := req.Record
		if rr.App == "" {
			return nil, nil, errors.New("record job: record.app is required")
		}
		if !workloads.Known(rr.App) {
			return nil, nil, fmt.Errorf("record job: unknown app %q (known: %s; analysis corpus: %s)",
				rr.App, strings.Join(workloads.Names(), ", "),
				strings.Join(workloads.AnalysisNames(), ", "))
		}
		name := rr.Name
		if name == "" {
			name = rr.App
		}
		// Early 409 for a name already being recorded; the authoritative
		// reservation is taken when the job actually starts, so two
		// same-name jobs racing through this check serialize at run time
		// (the loser fails with a conflict) instead of interleaving writes
		// into one store file.
		if s.recordHeld(name) {
			return nil, nil, fmt.Errorf("%w: trace %q is already being recorded", errConflict, name)
		}
		tel := newJobTel("record/" + name)
		return &sched.Job{
			Name: "record/" + name,
			Run: func(ctx context.Context) (any, error) {
				root, start := tel.begin()
				defer root.End()
				if !s.tryReserveRecord(name) {
					return nil, fmt.Errorf("%w: trace %q is already being recorded", errConflict, name)
				}
				defer s.releaseRecord(name)
				res, err := RecordTraceSpan(s.store, rr, ctx.Err, root)
				if err != nil {
					return nil, err
				}
				s.eventsReplayed.Add(res.Events)
				res.Timing = tel.timing(start, 0)
				return res, nil
			},
		}, tel, nil

	case "replay", "analyze":
		// A replay is an analysis with the empty analyzer set.
		factory := func() []analysis.Analyzer { return nil }
		if req.Kind == "analyze" {
			spec := req.Analyzers
			if spec == "" {
				spec = "race,leak"
			}
			if _, err := analysis.FromSpec(spec); err != nil {
				return nil, nil, err
			}
			factory = func() []analysis.Analyzer {
				az, _ := analysis.FromSpec(spec) // validated above
				return az
			}
		}
		kind := req.Kind
		segmented := kind == "analyze" && req.Segments
		workers := req.Workers
		return s.traceJob(req,
			func(job trace.Job, timing func([]SegmentTiming) *JobTiming) (any, error) {
				aj := trace.AnalyzeJob{Job: job, NewAnalyzers: factory}
				var r trace.AnalyzeResult
				var stats trace.BatchStats
				if segmented {
					r, stats, _ = trace.AnalyzeSegments(aj, workers) // the error is r.Err
				} else {
					var rs []trace.AnalyzeResult
					rs, stats = trace.AnalyzeBatch([]trace.AnalyzeJob{aj}, 1)
					r = rs[0]
				}
				res, err := s.analyzeResult(&job, &r, stats.Events)
				if err != nil {
					return nil, err
				}
				rows := make([]SegmentTiming, len(r.Segments))
				for i, at := range r.Segments {
					rows[i] = SegmentTiming{
						Seg:        at.Seg,
						FirstEpoch: at.FirstEpoch,
						LastEpoch:  at.LastEpoch,
						FoldMS:     durMS(at.Fold),
						DecodeMS:   durMS(at.Decode),
						ExecuteMS:  durMS(at.Exec),
						MergeMS:    durMS(at.Merge),
						Matched:    true,
					}
				}
				res.Timing = timing(rows)
				if kind == "replay" {
					return &res.ReplayResult, nil
				}
				return res, nil
			})

	case "segment-replay":
		workers := req.Workers
		return s.traceJob(req,
			func(job trace.Job, timing func([]SegmentTiming) *JobTiming) (any, error) {
				start := time.Now()
				results, stats, err := trace.ReplaySegments(job, workers)
				if err != nil {
					return nil, err
				}
				s.eventsReplayed.Add(stats.Events)
				rows := make([]SegmentTiming, len(results))
				for i, sr := range results {
					rows[i] = SegmentTiming{
						Seg:        sr.Seg,
						FirstEpoch: sr.FirstEpoch,
						LastEpoch:  sr.LastEpoch,
						FoldMS:     durMS(sr.Fold),
						DecodeMS:   durMS(sr.Decode),
						ExecuteMS:  durMS(sr.Exec),
						StitchMS:   durMS(sr.Stitch),
						Matched:    sr.Matched,
					}
				}
				return &SegmentReplayResult{
					Trace:    job.Name,
					Segments: len(results),
					Matched:  stats.Matched,
					Events:   stats.Events,
					WallNS:   time.Since(start).Nanoseconds(),
					Timing:   timing(rows),
				}, nil
			})

	case "compact":
		if req.Trace == "" {
			return nil, nil, errors.New("compact job: trace is required")
		}
		// Unlike replay, compact accepts an incomplete trace (a crashed
		// recording compacts to a complete partial-summary trace), so the
		// submission check is existence + readability only.
		entry, err := s.store.Entry(req.Trace)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %v", errNoSuchTrace, err)
		}
		if entry.Err != nil {
			return nil, nil, fmt.Errorf("trace %q is unreadable: %v", req.Trace, entry.Err)
		}
		tname := req.Trace
		tel := newJobTel("compact/" + tname)
		return &sched.Job{
			Name: "compact/" + tname,
			Run: func(ctx context.Context) (any, error) {
				root, begin := tel.begin()
				defer root.End()
				// Compact rewrites the file, so it takes the same write
				// reservation as a record job. Concurrent readers are safe —
				// the rename-in-place leaves their open descriptors on the
				// old inode and the frame cache keys on content marks.
				if !s.tryReserveRecord(tname) {
					return nil, fmt.Errorf("%w: trace %q is being written", errConflict, tname)
				}
				defer s.releaseRecord(tname)
				if err := ctx.Err(); err != nil {
					return nil, err
				}
				start := time.Now()
				cs, err := s.store.Compact(tname)
				if err != nil {
					return nil, err
				}
				root.Record("compact", start, time.Now())
				return &CompactResult{
					Trace:       tname,
					OldBytes:    cs.OldBytes,
					NewBytes:    cs.NewBytes,
					Epochs:      cs.Epochs,
					Checkpoints: cs.Checkpoints,
					WallNS:      time.Since(start).Nanoseconds(),
					Timing:      tel.timing(begin, 0),
				}, nil
			},
		}, tel, nil
	}
	return nil, nil, fmt.Errorf("unknown job kind %q (record, replay, segment-replay, analyze, compact)", req.Kind)
}

// validateTrace is the cheap submission-time check for trace-consuming
// jobs: the trace must exist, scan clean, be complete, and name a program
// the resolver can rebuild. The expensive half — decoding and module
// reconstruction — happens on the worker, so queued jobs pin nothing; a
// rare late failure there (e.g. a fingerprint mismatch) fails the job
// rather than the submission.
func (s *Server) validateTrace(name string) error {
	entry, err := s.store.Entry(name)
	if err != nil {
		return fmt.Errorf("%w: %v", errNoSuchTrace, err)
	}
	if entry.Err != nil {
		return fmt.Errorf("trace %q is unreadable: %v", name, entry.Err)
	}
	if !entry.Complete {
		return fmt.Errorf("trace %q is incomplete (no summary frame)", name)
	}
	if !workloads.Known(entry.Header.App) {
		return fmt.Errorf("trace %q was recorded from unknown app %q", name, entry.Header.App)
	}
	return nil
}

// traceJob validates and builds the scheduler job of a trace-consuming
// kind. Every such job runs the same prelude on its worker — hold the trace
// against deletion, resolve it, wire cancellation and the root span into
// the replay job — and then exec, which runs the kind's trace-layer entry
// point and shapes the result payload; timing builds the payload's latency
// breakdown around exec's per-segment rows.
//
// Module and trace are resolved on the worker, not at submission: a queued
// job must not pin a trace handle and a rebuilt module for its whole time
// in the queue. The handle itself decodes lazily — the executor streams
// epochs through the store's frame cache as the replay consumes them.
func (s *Server) traceJob(req *JobRequest,
	exec func(job trace.Job, timing func([]SegmentTiming) *JobTiming) (any, error)) (*sched.Job, *jobTel, error) {
	if req.Trace == "" {
		return nil, nil, fmt.Errorf("%s job: trace is required", req.Kind)
	}
	if err := s.validateTrace(req.Trace); err != nil {
		return nil, nil, err
	}
	name, tname := req.Kind+"/"+req.Trace, req.Trace
	opts := core.Options{MaxReplays: req.MaxReplays, DelayOnDivergence: !req.NoDelay}
	tel := newJobTel(name)
	return &sched.Job{
		Name: name,
		Run: func(ctx context.Context) (any, error) {
			root, start := tel.begin()
			defer root.End()
			release := s.holdRead(tname)
			defer release()
			resolveStart := time.Now()
			job, err := ResolveJob(s.store, tname, opts)
			if err != nil {
				return nil, err
			}
			resolve := time.Since(resolveStart)
			root.Record("resolve", resolveStart, resolveStart.Add(resolve))
			defer job.Handle.Close()
			job.Opts.Interrupt = ctx.Err
			job.Span = root
			return exec(job, func(rows []SegmentTiming) *JobTiming {
				t := tel.timing(start, resolve)
				t.Segments = rows
				return t
			})
		},
	}, tel, nil
}

// analyzeResult builds the job result payload from an analysis outcome,
// pinning traces whose findings make them evidence.
func (s *Server) analyzeResult(job *trace.Job, r *trace.AnalyzeResult, events int64) (*AnalyzeJobResult, error) {
	if !r.Matched {
		return nil, r.Err
	}
	s.eventsReplayed.Add(events)
	res := &AnalyzeJobResult{
		ReplayResult: ReplayResult{
			Trace:   job.Name,
			Matched: true,
			Events:  events,
			WallNS:  r.Wall.Nanoseconds(),
		},
		Findings: r.Findings,
	}
	if res.Findings == nil {
		res.Findings = []analysis.Finding{}
	}
	if r.Report != nil {
		res.Attempts = r.Report.Stats.LastReplayAttempts
	}
	if r.Err != nil {
		res.Fault = r.Err.Error()
	}
	// A trace that reproduced a finding is evidence; pin it so no
	// retention policy reclaims it out from under the investigation.
	if len(res.Findings) > 0 {
		if err := s.store.Pin(job.Name); err == nil {
			res.Pinned = true
		}
	}
	return res, nil
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.sched.Jobs()})
}

func (s *Server) jobID(w http.ResponseWriter, r *http.Request) (uint64, bool) {
	id, err := strconv.ParseUint(r.PathValue("id"), 10, 64)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad job id %q", r.PathValue("id")))
		return 0, false
	}
	return id, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	info, err := s.sched.Info(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleJobStream streams a job's state transitions as NDJSON until the
// terminal snapshot (which carries the result and findings), then closes.
func (s *Server) handleJobStream(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	ch, err := s.sched.Watch(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for {
		select {
		case info, open := <-ch:
			if !open {
				return
			}
			if err := enc.Encode(info); err != nil {
				return // client went away
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	info, err := s.sched.Cancel(id)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.start).String(),
	})
}

// --- plumbing ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}
