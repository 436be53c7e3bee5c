package server

// Server-side telemetry: the /metrics registry (every ir_served_* series,
// rendered through internal/obs so the exposition is lint-clean), per-route
// request latency instrumentation, and per-job span timelines served as
// Chrome trace-event JSON by GET /api/v1/jobs/{id}/timeline.
//
// The daemon's own series are point-in-time mirrors: handleMetrics snapshots
// the scheduler, store, and GC counters and Sets them into the registry at
// scrape time, then renders the server registry followed by the process-wide
// obs.Default() registry (scheduler wait/run histograms, trace-layer and
// core-layer timings). Request latency and request counts are the only
// series observed on the hot path.

import (
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// serverMetrics is the daemon's /metrics registry. Everything except the
// HTTP families is Set at scrape time from authoritative counters held
// elsewhere (the scheduler, the store, the Server's atomics).
type serverMetrics struct {
	reg *obs.Registry

	httpLatency *obs.HistogramVec
	httpReqs    *obs.CounterVec

	queueDepth, queueLimit, workers, running *obs.Gauge
	jobsTotal                                *obs.CounterVec
	submitted, rejected                      *obs.Counter
	eventsReplayed                           *obs.Counter
	eventsPerSec                             *obs.Gauge

	cacheHits, cacheMisses, cacheEvictions *obs.Counter
	cacheBytes, cacheLimit                 *obs.Gauge
	cacheHitRate, cachedFrames             *obs.Gauge

	storeBytes, storeTraces *obs.Gauge
	tierTraces              *obs.GaugeVec
	pinned                  *obs.Gauge

	gcRuns, gcReclaimed *obs.Counter
	uptime              *obs.Gauge
}

func newServerMetrics() *serverMetrics {
	r := obs.NewRegistry()
	return &serverMetrics{
		reg: r,

		httpLatency: r.NewHistogramVec(obs.MServedHTTPLatency,
			"API request latency by route.", "route", obs.DefBuckets),
		httpReqs: r.NewCounterVec(obs.MServedHTTPRequests,
			"API requests served, by route.", "route"),

		queueDepth: r.NewGauge(obs.MServedQueueDepth, "Jobs waiting for a worker."),
		queueLimit: r.NewGauge(obs.MServedQueueLimit, "Queue capacity; submissions past it get 429."),
		workers:    r.NewGauge(obs.MServedWorkers, "Worker pool size."),
		running:    r.NewGauge(obs.MServedJobsRunning, "Jobs executing right now."),
		jobsTotal: r.NewCounterVec(obs.MServedJobsTotal,
			"Terminal jobs by final state.", "state"),
		submitted: r.NewCounter(obs.MServedJobsSubmitted, "Jobs accepted into the queue."),
		rejected:  r.NewCounter(obs.MServedJobsRejected, "Submissions refused by backpressure."),
		eventsReplayed: r.NewCounter(obs.MServedEventsReplayed,
			"Recorded events re-executed (or recorded) by completed jobs."),
		eventsPerSec: r.NewGauge(obs.MServedEventsPerSec,
			"Replay throughput: events_replayed_total / uptime."),

		cacheHits:      r.NewCounter(obs.MServedCacheHits, "Decode-cache hits."),
		cacheMisses:    r.NewCounter(obs.MServedCacheMisses, "Decode-cache misses."),
		cacheEvictions: r.NewCounter(obs.MServedCacheEvictions, "Decode-cache evictions."),
		cacheBytes:     r.NewGauge(obs.MServedCacheBytes, "Bytes of decoded frames cached."),
		cacheLimit:     r.NewGauge(obs.MServedCacheLimit, "Decode-cache byte budget."),
		cacheHitRate:   r.NewGauge(obs.MServedCacheHitRate, "Decode-cache hits / loads since start."),
		cachedFrames:   r.NewGauge(obs.MServedCachedFrames, "Decoded frames resident in the cache."),

		storeBytes:  r.NewGauge(obs.MServedStoreBytes, "Summed size of stored trace files."),
		storeTraces: r.NewGauge(obs.MServedStoreTraces, "Stored traces."),
		tierTraces: r.NewGaugeVec(obs.MServedTracesByTier,
			"Traces by encoding tier (cold = compressed frame bodies).", "tier"),
		pinned: r.NewGauge(obs.MServedPinnedTraces, "Traces pinned against retention GC."),

		gcRuns:      r.NewCounter(obs.MServedGCRuns, "Retention GC passes completed."),
		gcReclaimed: r.NewCounter(obs.MServedGCReclaimed, "Bytes reclaimed by retention GC passes."),
		uptime:      r.NewGauge(obs.MServedUptimeSeconds, "Seconds since the server started."),
	}
}

// route registers a handler wrapped with per-route instrumentation: a
// latency observation and request count under the route label, and a span
// in the server's bounded request-span ring. name must be low-cardinality
// (the route, never the path — path values carry trace names and job IDs).
func (s *Server) route(pattern, name string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		sp := s.reqSpans.Start("http " + name)
		sp.SetAttr("method", r.Method)
		sp.SetAttr("path", r.URL.Path)
		defer func() {
			s.met.httpReqs.With(name).Inc()
			s.met.httpLatency.With(name).ObserveSince(start)
			sp.End()
		}()
		h(w, r)
	})
}

// handleMetrics renders the Prometheus text exposition: the daemon's own
// series (scheduler and store state mirrored into the registry at scrape
// time) followed by the process-wide obs.Default() registry — scheduler
// queue-wait/run histograms and the trace/core/flight layer timings.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	m := s.sched.Metrics()
	st := s.store.Stats()
	uptime := time.Since(s.start).Seconds()
	events := s.eventsReplayed.Load()
	eps := 0.0
	if uptime > 0 {
		eps = float64(events) / uptime
	}
	met := s.met
	met.queueDepth.Set(float64(m.QueueDepth))
	met.queueLimit.Set(float64(m.QueueLimit))
	met.workers.Set(float64(m.Workers))
	met.running.Set(float64(m.Running))
	met.jobsTotal.With("done").Set(float64(m.Done))
	met.jobsTotal.With("failed").Set(float64(m.Failed))
	met.jobsTotal.With("canceled").Set(float64(m.Canceled))
	met.submitted.Set(float64(m.Submitted))
	met.rejected.Set(float64(m.Rejected))
	met.eventsReplayed.Set(float64(events))
	met.eventsPerSec.Set(eps)
	met.cacheHits.Set(float64(st.Hits))
	met.cacheMisses.Set(float64(st.Misses))
	met.cacheEvictions.Set(float64(st.Evictions))
	met.cacheBytes.Set(float64(st.CachedBytes))
	met.cacheLimit.Set(float64(st.LimitBytes))
	met.cacheHitRate.Set(st.HitRate())
	met.cachedFrames.Set(float64(st.CachedFrames))
	if ds, err := s.store.DiskStats(); err == nil {
		met.storeBytes.Set(float64(ds.TotalBytes))
		met.storeTraces.Set(float64(ds.Traces))
	}
	if entries, err := s.store.List(); err == nil {
		hot, cold := 0, 0
		for _, e := range entries {
			if e.Err == nil && e.Header.Compressed {
				cold++
			} else {
				hot++
			}
		}
		met.tierTraces.With("hot").Set(float64(hot))
		met.tierTraces.With("cold").Set(float64(cold))
	}
	if pins, err := s.store.Pins(); err == nil {
		met.pinned.Set(float64(len(pins)))
	}
	met.gcRuns.Set(float64(s.gcRuns.Load()))
	met.gcReclaimed.Set(float64(s.gcReclaimed.Load()))
	met.uptime.Set(uptime)

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = met.reg.Render(w)
	_ = obs.Default().Render(w)
}

// --- per-job timelines ---

// maxTimelines bounds the per-job span recorders retained for the timeline
// endpoint; the oldest submission is evicted first.
const maxTimelines = 256

// jobSpanCap bounds one job's span ring; the executor emits ~5 spans per
// segment (a recording, one per epoch boundary), so this covers large
// fan-outs before drop-oldest kicks in.
const jobSpanCap = 4096

// jobTel couples one job's span recorder with submission-time bookkeeping:
// the recorder is registered under the job ID at submit, and the queued
// interval (submit → worker pickup) becomes the root span's first child.
type jobTel struct {
	rec      *obs.Recorder
	submitAt time.Time
	name     string
}

func newJobTel(name string) *jobTel {
	return &jobTel{rec: obs.NewRecorder(jobSpanCap), submitAt: time.Now(), name: name}
}

// begin opens the job's root span when a worker picks the job up. The root
// covers queue wait plus execution (it starts at submission), with the
// wait itself visible as the "queued" child.
func (t *jobTel) begin() (*obs.Span, time.Time) {
	start := time.Now()
	root := t.rec.StartAt(t.name, t.submitAt)
	root.Record("queued", t.submitAt, start)
	return root, start
}

// timing summarizes the job for its JSON result: queue wait, resolve time
// (trace open + module rebuild; zero for jobs that resolve nothing), and
// the remaining execution.
func (t *jobTel) timing(runStart time.Time, resolve time.Duration) *JobTiming {
	return &JobTiming{
		QueueMS:   durMS(runStart.Sub(t.submitAt)),
		ResolveMS: durMS(resolve),
		ExecuteMS: durMS(time.Since(runStart) - resolve),
	}
}

func durMS(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// JobTiming is the latency breakdown attached to every job result payload:
// where the wall-clock went, from submission to completion.
type JobTiming struct {
	// QueueMS is submission → worker pickup.
	QueueMS float64 `json:"queue_ms"`
	// ResolveMS is trace open + module rebuild (zero when the job resolves
	// no trace — record, compact).
	ResolveMS float64 `json:"resolve_ms,omitempty"`
	// ExecuteMS is the work itself.
	ExecuteMS float64 `json:"execute_ms"`
	// Segments breaks a trace-consuming job down per executed segment; a
	// whole-trace replay or analyze has exactly one row.
	Segments []SegmentTiming `json:"segments,omitempty"`
}

// SegmentTiming is one segment's stage breakdown inside a replay,
// segment-replay or analyze job result.
type SegmentTiming struct {
	Seg        int   `json:"seg"`
	FirstEpoch int64 `json:"first_epoch"`
	LastEpoch  int64 `json:"last_epoch"`
	// Stage milliseconds: checkpoint folds, epoch-range decode, replay
	// execution, and the final-segment oracle check (interior segments
	// stitch inside execute; replay and analyze rows leave it zero).
	FoldMS    float64 `json:"fold_ms"`
	DecodeMS  float64 `json:"decode_ms"`
	ExecuteMS float64 `json:"execute_ms"`
	StitchMS  float64 `json:"stitch_ms"`
	// MergeMS is a segmented-analyze segment's share of the sequential
	// analyzer fold (tape re-delivery plus boundary state round-trip);
	// zero when nothing was folded — replays, and one-segment analyzes,
	// whose analyzers attach live.
	MergeMS float64 `json:"merge_ms,omitempty"`
	Matched bool    `json:"matched"`
}

// putTimeline retains a finished submission's span recorder under its job
// ID, evicting the oldest past maxTimelines.
func (s *Server) putTimeline(id uint64, rec *obs.Recorder) {
	if rec == nil {
		return
	}
	s.tlMu.Lock()
	defer s.tlMu.Unlock()
	s.timelines[id] = rec
	s.tlOrder = append(s.tlOrder, id)
	for len(s.tlOrder) > maxTimelines {
		delete(s.timelines, s.tlOrder[0])
		s.tlOrder = s.tlOrder[1:]
	}
}

// handleJobTimeline serves one job's span timeline as Chrome trace-event
// JSON (load it in chrome://tracing or Perfetto). The timeline is live —
// a running job shows its completed spans so far.
func (s *Server) handleJobTimeline(w http.ResponseWriter, r *http.Request) {
	id, ok := s.jobID(w, r)
	if !ok {
		return
	}
	s.tlMu.Lock()
	rec := s.timelines[id]
	s.tlMu.Unlock()
	if rec == nil {
		if _, err := s.sched.Info(id); err != nil {
			httpError(w, http.StatusNotFound, err)
			return
		}
		httpError(w, http.StatusNotFound, fmt.Errorf("job %d has no retained timeline (evicted, or telemetry disabled)", id))
		return
	}
	spans, dropped := rec.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if dropped > 0 {
		w.Header().Set("X-IR-Spans-Dropped", strconv.FormatUint(dropped, 10))
	}
	_ = obs.ChromeTrace(w, spans)
}

// handleDebugSpans serves the bounded ring of recent HTTP request spans as
// Chrome trace-event JSON — a cheap always-on view of what the API surface
// has been doing lately.
func (s *Server) handleDebugSpans(w http.ResponseWriter, r *http.Request) {
	spans, dropped := s.reqSpans.Snapshot()
	w.Header().Set("Content-Type", "application/json")
	if dropped > 0 {
		w.Header().Set("X-IR-Spans-Dropped", strconv.FormatUint(dropped, 10))
	}
	_ = obs.ChromeTrace(w, spans)
}
