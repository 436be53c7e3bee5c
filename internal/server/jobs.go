package server

// Store-level operations the service layer and the CLI share: resolving a
// stored trace back to a runnable job (rebuilding the module from the
// recorded app name, iteration count, and fingerprint) and recording a
// named workload straight into a store. cmd/ir-trace delegates here so the
// daemon and the one-shot commands cannot drift apart.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/tir"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// isInterrupt reports whether a run error is a caller cancellation (the
// wrapped cause of core.Options.Interrupt fed by a job context).
func isInterrupt(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// ResolveJob opens a stored trace and rebuilds it into a runnable replay
// job: the trace is resolved to a Handle (one footer read for indexed
// files — no epochs are decoded here; workers stream their own slices),
// the recorded application (or analysis-corpus program) is re-synthesized,
// checked against the trace's module fingerprint, and the recording's seed
// and list capacities are installed into opts. The caller owns the
// returned job's Handle and must Close it after the replay work is done.
func ResolveJob(st *trace.Store, name string, opts core.Options) (trace.Job, error) {
	h, err := st.Open(name)
	if err != nil {
		return trace.Job{}, err
	}
	job, err := resolveHandle(h, name, opts)
	if err != nil {
		h.Close()
		return trace.Job{}, err
	}
	return job, nil
}

func resolveHandle(h *trace.Handle, name string, opts core.Options) (trace.Job, error) {
	hdr := h.Header()
	spec, ok := workloads.ByName(hdr.App)
	if !ok {
		if c, okc := workloads.AnalysisByName(hdr.App); okc {
			// A ground-truth corpus recording: the module is parameterless.
			mod := c.Build()
			if hash := hdr.ModuleHash; hash != 0 && tir.Fingerprint(mod) != hash {
				return trace.Job{}, fmt.Errorf(
					"trace %s: corpus program %q no longer matches the recorded fingerprint %#x",
					name, c.Name, hash)
			}
			opts.Seed = hdr.Seed
			opts.EventCap = hdr.EventCap
			return trace.Job{Name: name, Module: mod, Handle: h, Opts: opts}, nil
		}
		return trace.Job{}, fmt.Errorf("trace %s was recorded from unknown app %q", name, hdr.App)
	}
	// The header records the iteration count the module was built with;
	// older traces without it fall back to a fingerprint search over
	// iteration scales (the only module-shaping knob the recorder exposes).
	if hdr.AppIters > 0 {
		spec.Iters = hdr.AppIters
	}
	mod, err := buildMatching(spec, hdr.ModuleHash)
	if err != nil {
		return trace.Job{}, fmt.Errorf("trace %s: %v", name, err)
	}
	opts.Seed = hdr.Seed
	opts.EventCap = hdr.EventCap
	return trace.Job{
		Name: name, Module: mod, Handle: h, Opts: opts,
		Setup: func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil },
	}, nil
}

// buildMatching finds the iteration count whose module matches hash: the
// spec's iteration knob is the only module-shaping parameter the recording
// paths expose.
func buildMatching(spec workloads.Spec, hash uint64) (*tir.Module, error) {
	mod, err := spec.Build()
	if err != nil {
		return nil, err
	}
	if hash == 0 || tir.Fingerprint(mod) == hash {
		return mod, nil
	}
	base := spec
	for iters := 3; iters <= base.Iters*4+16; iters++ {
		s := base
		s.Iters = iters
		m, err := s.Build()
		if err != nil {
			return nil, err
		}
		if tir.Fingerprint(m) == hash {
			return m, nil
		}
	}
	return nil, fmt.Errorf("no iteration scale of %q matches the recorded module fingerprint %#x (recorded with different parameters?)", spec.Name, hash)
}

// RecordRequest parameterizes one recording into a store — the service's
// record job body and ir-trace record's flag set.
type RecordRequest struct {
	// App names the workload: an evaluated application, an ablation
	// variant, or an analysis-corpus program.
	App string `json:"app"`
	// Name is the trace name; empty means App.
	Name string `json:"name,omitempty"`
	// Scale multiplies the workload's iteration count (0 = 1.0); corpus
	// programs are fixed-size and ignore it.
	Scale float64 `json:"scale,omitempty"`
	// Seed drives external nondeterminism (0 keeps 0 — the CLI default of
	// 42 is applied by the flag, not here).
	Seed int64 `json:"seed,omitempty"`
	// EventCap overrides the per-thread event list size (0 = default).
	EventCap int `json:"event_cap,omitempty"`
	// CheckpointEvery persists a checkpoint frame every N epochs (0 =
	// none); checkpointed traces replay segment-parallel.
	CheckpointEvery int `json:"checkpoint_every,omitempty"`
	// FlightEpochs > 0 switches the recording to flight-recorder mode:
	// instead of streaming the whole run into the store, a bounded ring
	// retains roughly the last FlightEpochs epochs, and at run end (fault
	// or clean exit) the retained suffix spills into the store as a trace
	// that replays from its leading checkpoint. Recording cost stays
	// O(epoch), disk stays O(FlightEpochs), however long the run.
	// CheckpointEvery defaults to 1 in this mode (the ring trims at
	// checkpoints).
	FlightEpochs int `json:"flight_epochs,omitempty"`
}

// RecordResult is a completed recording's summary.
type RecordResult struct {
	Trace       string `json:"trace"`
	Path        string `json:"path"`
	Epochs      int    `json:"epochs"`
	Checkpoints int    `json:"checkpoints"`
	Keyframes   int    `json:"keyframes,omitempty"`
	Events      int64  `json:"events"`
	Bytes       int64  `json:"bytes"`
	Exit        uint64 `json:"exit"`
	// Fault carries a recorded crash — the trace is still valid (a recorded
	// fault is the prime replay candidate), so it is not an error.
	Fault  string `json:"fault,omitempty"`
	WallNS int64  `json:"wall_ns"`
	// Suffix marks a flight-recorder spill: the trace replays from its
	// leading checkpoint (FirstEpoch) instead of program start.
	Suffix     bool  `json:"suffix,omitempty"`
	FirstEpoch int64 `json:"first_epoch,omitempty"`
	// Timing is the daemon's latency breakdown (nil for CLI recordings).
	Timing *JobTiming `json:"timing,omitempty"`
}

// RecordTrace runs the named workload under the recorder, streaming epoch
// (and optional checkpoint) frames straight into the store. The recording
// lands under a ".partial" name and is renamed into place only when it
// closes at a clean frame boundary, so a crashed recorder never leaves a
// torn file under a valid name and List never reports an in-progress
// recording. interrupt, when non-nil, is polled at gated points and
// cancels the recording; the clean prefix written so far is still
// committed (the store lists it as an incomplete trace) and the cause is
// returned. A failed or canceled re-recording therefore replaces a
// previously complete trace only at commit time. Concurrent recordings of
// one name are the caller's responsibility to exclude — the daemon
// serializes them per name.
func RecordTrace(st *trace.Store, req RecordRequest, interrupt func() error) (*RecordResult, error) {
	return RecordTraceSpan(st, req, interrupt, nil)
}

// RecordTraceSpan is RecordTrace with a telemetry span: span, when
// non-nil, is handed to the runtime as core.Options.Span, so the
// recording's epoch boundaries (with quiescence waits and rollbacks)
// become children on the caller's timeline. The daemon's record jobs pass
// their root job span; the CLI passes nil.
func RecordTraceSpan(st *trace.Store, req RecordRequest, interrupt func() error, span *obs.Span) (*RecordResult, error) {
	if req.App == "" {
		return nil, fmt.Errorf("record: app is required")
	}
	var (
		mod      *tir.Module
		setupOS  func(rt *core.Runtime)
		appIters int
	)
	if spec, ok := workloads.ByName(req.App); ok {
		if req.Scale != 0 && req.Scale != 1.0 {
			spec.Iters = int(float64(spec.Iters) * req.Scale)
			if spec.Iters < 3 {
				spec.Iters = 3
			}
		}
		m, err := spec.Build()
		if err != nil {
			return nil, err
		}
		mod, appIters = m, spec.Iters
		setupOS = func(rt *core.Runtime) { spec.SetupOS(rt.OS()) }
	} else if c, ok := workloads.AnalysisByName(req.App); ok {
		// Ground-truth corpus programs take no OS setup and no scaling.
		mod = c.Build()
	} else {
		_, err := workloads.ByNameStrict(req.App)
		return nil, fmt.Errorf("record: %w (analysis corpus: %s)",
			err, strings.Join(workloads.AnalysisNames(), ", "))
	}
	name := req.Name
	if name == "" {
		name = req.App
	}
	if req.FlightEpochs > 0 {
		return recordFlight(st, req, name, mod, appIters, setupOS, interrupt, span)
	}

	// Stream epoch frames straight to the partial file as the runtime
	// flushes them; Abort below is crash insurance (no-op after Commit).
	p, err := st.Create(name)
	if err != nil {
		return nil, err
	}
	defer p.Abort()
	w, err := trace.NewWriter(p, trace.Header{
		App:        req.App,
		ModuleHash: tir.Fingerprint(mod),
		EventCap:   req.EventCap,
		VarCap:     0,
		Seed:       req.Seed,
		AppIters:   appIters,
	})
	if err != nil {
		return nil, err
	}
	var events int64
	opts := core.Options{Seed: req.Seed, EventCap: req.EventCap, Interrupt: interrupt, Span: span}
	sink := w.Sink()
	opts.TraceSink = func(ep *record.EpochLog) error {
		events += int64(ep.EventCount())
		return sink(ep)
	}
	if req.CheckpointEvery > 0 {
		opts.CheckpointEvery = req.CheckpointEvery
		opts.CheckpointSink = w.CheckpointSink()
	}
	rt, err := core.New(mod, opts)
	if err != nil {
		return nil, err
	}
	if setupOS != nil {
		setupOS(rt)
	}
	start := time.Now()
	rep, runErr := rt.Run()
	// The job reads nothing of the runtime after its report; the address
	// space goes back for the next job.
	defer rt.Release()
	if rep == nil {
		return nil, runErr
	}
	if isInterrupt(runErr) {
		// A canceled recording stops at a clean frame boundary: commit the
		// prefix as an incomplete trace (no summary frame); the store lists
		// it as such.
		if cerr := p.Commit(); cerr != nil {
			return nil, cerr
		}
		return nil, runErr
	}
	if err := w.Finish(&trace.Summary{Exit: rep.Exit, Output: rep.Output}); err != nil {
		return nil, err
	}
	bytes := p.Bytes()
	if err := p.Commit(); err != nil {
		return nil, err
	}
	res := &RecordResult{
		Trace:       name,
		Path:        st.Path(name),
		Epochs:      w.Epochs(),
		Checkpoints: w.Ckpts(),
		Keyframes:   w.Keyframes(),
		Events:      events,
		Bytes:       bytes,
		Exit:        rep.Exit,
		WallNS:      time.Since(start).Nanoseconds(),
	}
	if runErr != nil {
		res.Fault = runErr.Error()
	}
	return res, nil
}

// recordFlight is RecordTrace's flight-recorder arm: the run streams into
// a bounded ring beside the store instead of a growing partial file, and
// the ring's retained suffix spills into the store when the run ends —
// with the real exit/output oracle when the program actually finished
// (clean or faulted), or as a partial trace when the recording was
// interrupted. Either way the stored trace replays from its leading
// checkpoint; the disk cost of an arbitrarily long run stays bounded.
func recordFlight(st *trace.Store, req RecordRequest, name string, mod *tir.Module,
	appIters int, setupOS func(*core.Runtime), interrupt func() error, span *obs.Span) (*RecordResult, error) {
	rec, err := flight.New(flight.RingPath(st, name), trace.Header{
		App:        req.App,
		ModuleHash: tir.Fingerprint(mod),
		EventCap:   req.EventCap,
		Seed:       req.Seed,
		AppIters:   appIters,
	}, req.FlightEpochs)
	if err != nil {
		return nil, err
	}
	defer rec.Close()
	var events int64
	opts := core.Options{
		Seed: req.Seed, EventCap: req.EventCap, Interrupt: interrupt,
		CheckpointEvery: req.CheckpointEvery, FlightRecorder: rec, Span: span,
	}
	opts.TraceSink = func(ep *record.EpochLog) error {
		events += int64(ep.EventCount())
		return nil
	}
	rt, err := core.New(mod, opts)
	if err != nil {
		return nil, err
	}
	if setupOS != nil {
		setupOS(rt)
	}
	start := time.Now()
	rep, runErr := rt.Run()
	// The job reads nothing of the runtime after its report; the address
	// space goes back for the next job.
	defer rt.Release()
	if rep == nil {
		return nil, runErr
	}
	var sum *trace.Summary
	if !isInterrupt(runErr) {
		sum = &trace.Summary{Exit: rep.Exit, Output: rep.Output}
	}
	stats, err := rec.Spill(st, name, sum)
	if err != nil {
		return nil, err
	}
	if isInterrupt(runErr) {
		// The partial suffix is stored; the job still reports the cancel.
		return nil, runErr
	}
	res := &RecordResult{
		Trace:      name,
		Path:       st.Path(name),
		Epochs:     stats.Epochs,
		Events:     events,
		Bytes:      stats.Bytes,
		Exit:       rep.Exit,
		WallNS:     time.Since(start).Nanoseconds(),
		Suffix:     stats.Suffix,
		FirstEpoch: stats.FirstEpoch,
	}
	if runErr != nil {
		res.Fault = runErr.Error()
	}
	return res, nil
}
