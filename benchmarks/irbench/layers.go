package main

// The traced repetition: the per-layer table, measured from outside. Every
// number here comes from timing calls into a package's public functions
// from this file — the replay and analyze phases are decomposed by hand
// into the calls the library makes internally, the recording sinks and the
// flight recorder are wrapped in timing shims, and bare-layer probes run on
// the workload's own data. Nothing is read from spans inside the program.

import (
	"errors"
	"fmt"
	"runtime"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/flight"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/tir"
	"repro/internal/trace"
	"repro/internal/vsys"
)

// stopwatch times consecutive stages under one parent span.
type stopwatch struct {
	sp   *obs.Span
	last time.Time
}

func newStopwatch(sp *obs.Span) *stopwatch { return &stopwatch{sp: sp, last: time.Now()} }

// lap closes the stage that began at the previous lap.
func (w *stopwatch) lap(name string) time.Duration {
	now := time.Now()
	d := now.Sub(w.last)
	w.sp.Record(name, w.last, now)
	w.last = now
	return d
}

// handReplay is one offline replay decomposed into the library's own steps.
type handReplay struct {
	open, fetch, fetchWarm, flatten, prepare, run time.Duration
	events                                        int64
	hitRate                                       float64
	rep                                           *core.Report
	findings                                      []analysis.Finding
	rt                                            *core.Runtime // completed; its memory image is the post-run image
}

// wall is the part ReplayBatch's Elapsed also covers (it is handed an open
// handle).
func (r *handReplay) wall() time.Duration { return r.fetch + r.flatten + r.prepare + r.run }

// replayByHand makes the calls trace.AnalyzeBatch makes — Store.Open,
// Handle.Epochs, record.Flattener, core.PrepareReplayFlat, Setup,
// RunReplay, analysis.Collect — one timed stage each, then fetches the
// epochs again to price the warm decode cache.
func (e *env) replayByHand(sp *obs.Span, name string, analyzers []analysis.Analyzer, extra ...core.Observer) (*handReplay, error) {
	st, err := trace.OpenStore(e.libDir)
	if err != nil {
		return nil, err
	}
	r := &handReplay{}
	w := newStopwatch(sp)
	h, err := st.Open(name)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	r.open = w.lap("trace.handle_open")
	lo, hi := h.EpochRange()
	epochs, err := h.Epochs(lo, hi)
	if err != nil {
		return nil, err
	}
	r.fetch = w.lap("trace.epoch_fetch")
	f := record.NewFlattener()
	for _, ep := range epochs {
		f.Add(ep)
	}
	fl, err := f.Flat()
	if err != nil {
		return nil, err
	}
	r.flatten = w.lap("record.flatten")
	job := e.job(h, nil)
	opts := job.Opts
	for _, a := range analyzers {
		opts.Observers = append(opts.Observers, a)
	}
	opts.Observers = append(opts.Observers, extra...)
	rt, err := core.PrepareReplayFlat(e.mod, fl, opts)
	if err != nil {
		return nil, err
	}
	if err := job.Setup(rt); err != nil {
		rt.Shutdown()
		return nil, err
	}
	r.prepare = w.lap("core.prepare_replay")
	rep, runErr := rt.RunReplay()
	r.run = w.lap("core.run_replay")
	if rep == nil || runErr != nil {
		return nil, fmt.Errorf("replay by hand did not match: %v", runErr)
	}
	r.rep, r.rt = rep, rt
	if r.findings, err = analysis.Collect(rt, analyzers, nil); err != nil {
		return nil, err
	}
	w.lap("analysis.collect")
	if _, err := h.Epochs(lo, hi); err != nil {
		return nil, err
	}
	r.fetchWarm = w.lap("trace.epoch_fetch_cached")
	r.hitRate = st.Stats().HitRate()
	r.events = h.EventCount()
	return r, nil
}

// perEvent is d spread over n events, in nanoseconds.
func perEvent(d time.Duration, n int64) float64 { return float64(d.Nanoseconds()) / float64(n) }

// tracedRepetition runs every phase once under spans and adds one sample
// per per-layer metric. It returns the walls bench.trace_overhead compares
// with the untraced repetition's.
func (e *env) tracedRepetition(s samples, root *obs.Span, rec *obs.Recorder) (walls repWalls) {
	g := e.g
	name := e.w.Name
	rep := root.Child("repetition")
	defer rep.End()

	start := time.Now()
	mod, err := e.w.Spec.Build()
	if g.op("build", err) {
		_ = tir.Fingerprint(mod)
		d := time.Since(start)
		rep.Record("workloads.build", start, start.Add(d))
		s.add("workloads.build_ms", ms(d))
	}

	sp := rep.Child("phase.baseline")
	base, err := e.baseline(sp)
	sp.End()
	okBase := g.op("baseline", err)

	st, err := trace.OpenStore(e.libDir)
	if !g.op("open store", err) {
		return walls
	}
	sp = rep.Child("phase.record")
	main, err := e.record(sp, st, name, e.w.CheckpointEvery, 0)
	sp.End()
	if !g.op("record", err) {
		return walls
	}
	walls.record = main.wall
	e.recordLayers(s, rec, main, base, okBase)

	sp = rep.Child("phase.insitu")
	ins, err := e.insitu(sp)
	sp.End()
	if g.op("in-situ replay", err) {
		s.add("core.insitu_rollback_ratio", median(ins.ratios))
		s.add("core.replay_attempts_per_match", float64(ins.stats.Replays)/float64(ins.stats.MatchedReplays))
	}

	sp = rep.Child("phase.replay")
	plain, err := e.replayByHand(sp, name, nil)
	sp.End()
	if err == nil {
		err = sameOutcome("replay by hand", plain.rep, main.rep)
	}
	if !g.op("replay by hand", err) {
		return walls
	}
	walls.replay = plain.wall()
	s.add("trace.handle_open_ms", ms(plain.open))
	s.add("trace.epoch_fetch_ns_per_event", perEvent(plain.fetch, plain.events))
	s.add("trace.epoch_fetch_cached_ns_per_event", perEvent(plain.fetchWarm, plain.events))
	s.add("trace.cache_hit_rate", plain.hitRate)
	s.add("record.flatten_ns_per_event", perEvent(plain.flatten, plain.events))
	s.add("core.prepare_replay_ms", ms(plain.prepare))
	s.add("core.run_replay_ns_per_event", perEvent(plain.run, plain.events))

	sp = rep.Child("phase.analyze")
	an, err := e.replayByHand(sp, name, newAnalyzers())
	sp.End()
	if err == nil {
		if err = sameOutcome("analyze by hand", an.rep, main.rep); err == nil {
			err = e.checkFindings(an.findings)
		}
	}
	if g.op("analyze by hand", err) {
		walls.analyze = an.wall()
		s.add("analysis.observer_ns_per_event", perEvent(an.run-plain.run, an.events))
		s.add("analysis.findings", float64(len(an.findings)))
	}

	sp = rep.Child("phase.tape")
	e.tapeLayers(s, sp, name, plain)
	sp.End()

	sp = rep.Child("phase.segments")
	e.segmentLayers(s, sp, name, main.rep)
	sp.End()

	sp = rep.Child("phase.aux")
	aux := e.auxLayers(s, sp, st, main)
	sp.End()

	sp = rep.Child("phase.checkpoints")
	e.checkpointLayers(s, sp, main, aux)
	sp.End()

	sp = rep.Child("phase.batch")
	e.batchLayers(s, sp, name, main.rep)
	sp.End()

	sp = rep.Child("phase.probes")
	e.probes(s, sp, plain.rt)
	sp.End()

	sp = rep.Child("phase.served")
	r := e.daemon.runRound(sp, g)
	sp.End()
	e.servedLayers(s, r)
	return walls
}

// recordLayers splits the record phase by span arithmetic: the run span's
// self time is what core spent recording, its children are the writer.
func (e *env) recordLayers(s samples, rec *obs.Recorder, r *recording, base time.Duration, okBase bool) {
	spans, _ := rec.Snapshot()
	phase, ok := lastSpan(spans, "phase.record")
	if !ok {
		return
	}
	run, ok := childOf(spans, phase.ID, "core.run")
	if !ok {
		return
	}
	self := selfTime(spans, run.ID)
	s.add("core.run_self_s", self.Seconds())
	if okBase {
		s.add("core.event_cost_ns", perEvent(self-base, r.events))
	}
	epochs := r.rep.Stats.Epochs
	s.add("core.epochs", float64(epochs))
	s.add("core.quiescence_ms_per_epoch", float64(r.rep.Stats.QuiescenceNS)/1e6/float64(epochs))
	s.add("trace.write_epoch_ns_per_event", perEvent(r.sinkEpoch, r.events))
	s.add("trace.finish_commit_ms", ms(r.finishCommit))
}

// tapeLayers prices segment-parallel analysis's two halves on the whole
// trace: capturing the observer stream on a tape, and folding the tape into
// an analyzer chain, plus the race detector's state round trip. The state
// is the end-of-trace state — the largest any boundary hands over.
func (e *env) tapeLayers(s samples, sp *obs.Span, name string, plain *handReplay) {
	tape := analysis.NewTape()
	r, err := e.replayByHand(sp, name, nil, tape)
	if !e.g.op("tape capture", err) {
		return
	}
	s.add("analysis.tape_capture_ns_per_event", perEvent(r.run-plain.run, r.events))
	chain := newAnalyzers()
	start := time.Now()
	tape.Replay(chain)
	fold := time.Since(start)
	sp.Record("analysis.tape_fold", start, start.Add(fold))
	if n := tape.Len(); n > 0 {
		s.add("analysis.tape_fold_ns_per_event", perEvent(fold, int64(n)))
	}
	start = time.Now()
	state := chain[0].(analysis.StateCheckpointer).AppendState(nil)
	rest, err := analysis.NewRaceDetector().DecodeState(state)
	d := time.Since(start)
	sp.Record("analysis.state_roundtrip", start, start.Add(d))
	if err == nil && len(rest) != 0 {
		err = fmt.Errorf("%d trailing bytes after the race detector's state", len(rest))
	}
	if e.g.op("analyzer state round trip", err) {
		s.add("analysis.state_roundtrip_ms", ms(d))
	}
}

// segmentLayers reads the segmented entry points' own stage attribution.
func (e *env) segmentLayers(s samples, sp *obs.Span, name string, want *core.Report) {
	res, stats, err := e.segmentReplay(sp, name)
	if e.g.op("segment replay", err) {
		var fold, decode, exec, stitch, wall time.Duration
		for _, r := range res {
			fold, decode, exec, stitch, wall = fold+r.Fold, decode+r.Decode, exec+r.Exec, stitch+r.Stitch, wall+r.Wall
		}
		s.add("trace.segment_fold_share", float64(fold)/float64(wall))
		s.add("trace.segment_decode_share", float64(decode)/float64(wall))
		s.add("trace.segment_exec_share", float64(exec)/float64(wall))
		s.add("trace.segment_stitch_share", float64(stitch)/float64(wall))
		workers := e.workers
		if stats.Jobs < workers {
			workers = stats.Jobs
		}
		s.add("trace.segment_parallel_efficiency", float64(stats.Work)/(float64(stats.Elapsed)*float64(workers)))
		s.add("core.replay_attempts_per_match", float64(stats.Attempts)/float64(stats.Jobs))
	}
	_, whole, err := e.analyze(sp, name, want)
	if !e.g.op("analyze", err) {
		return
	}
	ares, _, err := e.segmentAnalyze(sp, name, want, whole)
	if e.g.op("segment analyze", err) {
		var merge time.Duration
		for _, a := range ares.Segments {
			merge += a.Merge
		}
		s.add("analysis.merge_share", float64(merge)/float64(ares.Wall))
	}
}

// auxTrace names the auxiliary cadence-1 recording in the library store.
func (e *env) auxTrace() string { return e.w.Name + "-aux" }

// timedFlight wraps a flight recorder in a timing shim.
type timedFlight struct {
	inner  core.FlightSink
	sp     *obs.Span
	epochs int
	spent  time.Duration
}

func (f *timedFlight) RecordEpoch(ep *record.EpochLog) error {
	start := time.Now()
	err := f.inner.RecordEpoch(ep)
	d := time.Since(start)
	f.epochs++
	f.spent += d
	f.sp.Record("flight.record_epoch", start, start.Add(d))
	return err
}

func (f *timedFlight) RecordCheckpoint(ck *core.Checkpoint) error {
	start := time.Now()
	err := f.inner.RecordCheckpoint(ck)
	f.sp.Record("flight.record_checkpoint", start, time.Now())
	return err
}

// auxLayers makes five more recordings of the program, each differing from
// a plain in-memory recording in one thing, and prices that thing by
// difference: checkpoint export, the overflow and use-after-free detectors,
// the flight ring against the direct writer at the same cadence. They share
// a reduced event-list capacity that gives every workload about four epochs
// — compute-loop has one at the default — so each has checkpoints to price.
func (e *env) auxLayers(s samples, sp *obs.Span, st *trace.Store, main *recording) (direct *recording) {
	g := e.g
	auxCap := int(main.events) / e.w.Spec.Threads / 4
	if auxCap < 64 {
		auxCap = 64
	}
	if auxCap > 4096 {
		auxCap = 4096
	}
	noop := func(*record.EpochLog) error { return nil }
	_, plain, err := e.run(sp, "aux.plain", core.Options{Seed: e.seed, EventCap: auxCap, TraceSink: noop}, nil)
	if !g.op("aux plain recording", err) {
		return nil
	}

	ckpts := 0
	_, withCk, err := e.run(sp, "aux.checkpoint_export", core.Options{
		Seed: e.seed, EventCap: auxCap, TraceSink: noop, CheckpointEvery: 1,
		CheckpointSink: func(*core.Checkpoint) error { ckpts++; return nil },
	}, nil)
	if g.op("aux checkpoint-export recording", err) && ckpts > 0 {
		s.add("core.checkpoint_capture_ms", ms(withCk-plain)/float64(ckpts))
	}

	det := detect.New(detect.Config{Overflow: true, UseAfterFree: true})
	dopts := det.Options()
	dopts.Seed, dopts.EventCap, dopts.TraceSink = e.seed, auxCap, noop
	_, withDet, err := e.run(sp, "aux.detectors", dopts, det.Attach)
	if g.op("aux detector recording", err) {
		s.add("detect.record_overhead", float64(withDet)/float64(plain))
	}

	dsp := sp.Child("aux.direct_writer")
	direct, err = e.record(dsp, st, e.auxTrace(), 1, auxCap)
	dsp.End()
	if !g.op("aux direct-writer recording", err) {
		return nil
	}

	ring, err := flight.New(flight.RingPath(st, e.w.Name), trace.Header{
		App: e.w.Spec.Name, ModuleHash: e.hash, Seed: e.seed, EventCap: auxCap, AppIters: e.w.Spec.Iters,
	}, 4)
	if !g.op("flight ring", err) {
		return direct
	}
	defer ring.Close()
	shim := &timedFlight{inner: ring, sp: sp}
	rep, ringWall, err := e.run(sp, "aux.flight_ring", core.Options{Seed: e.seed, EventCap: auxCap, FlightRecorder: shim}, nil)
	if g.op("aux flight-ring recording", err) {
		s.add("flight.ring_tax", float64(ringWall)/float64(direct.runWall))
		s.add("flight.record_epoch_ms", ms(shim.spent)/float64(shim.epochs))
		start := time.Now()
		_, err := ring.Spill(st, e.w.Name+"-spill", &trace.Summary{Exit: rep.Exit, Output: rep.Output})
		d := time.Since(start)
		sp.Record("flight.spill", start, start.Add(d))
		if g.op("flight spill", err) {
			s.add("flight.spill_ms", ms(d))
		}
	}
	return direct
}

// checkpointLayers prices the checkpoint path on the workload's own
// recording when it has at least two checkpoint frames, else on the
// auxiliary cadence-1 recording: writing a frame, folding the chain to the
// middle checkpoint from a cold store, and the memory delta codec between
// two consecutive exported checkpoints.
func (e *env) checkpointLayers(s samples, sp *obs.Span, main, aux *recording) {
	src, name := main, e.w.Name
	if len(src.cks) < 2 {
		if aux == nil || len(aux.cks) < 2 {
			e.g.op("checkpoint layers", errors.New("no recording with two checkpoints"))
			return
		}
		src, name = aux, e.auxTrace()
	}
	s.add("trace.write_checkpoint_ms", ms(src.sinkCkpt)/float64(src.ckpts))

	h, err := e.openLib(name)
	if e.g.op("open checkpointed trace", err) {
		start := time.Now()
		_, err := h.CheckpointAt(h.NumCheckpoints() / 2)
		d := time.Since(start)
		h.Close()
		sp.Record("trace.checkpoint_fold", start, start.Add(d))
		if e.g.op("checkpoint fold", err) {
			s.add("trace.checkpoint_fold_ms", ms(d))
		}
	}

	w := newStopwatch(sp)
	delta, err := mem.AppendSnapshotDelta(nil, src.cks[0].Snap, src.cks[1].Snap)
	enc := w.lap("mem.delta_encode")
	if err == nil {
		_, err = mem.ApplySnapshotDelta(src.cks[0].Snap, delta)
	}
	app := w.lap("mem.delta_apply")
	if e.g.op("memory delta codec", err) {
		s.add("mem.delta_encode_ms", ms(enc))
		s.add("mem.delta_apply_ms", ms(app))
		s.add("mem.delta_bytes", float64(len(delta)))
	}
}

// batchLayers runs the library's ReplayBatch twice, with program telemetry
// off and on, for the telemetry tax and the allocation volume of a replay.
func (e *env) batchLayers(s samples, sp *obs.Span, name string, want *core.Report) {
	prev := obs.SetEnabled(false)
	off, err := e.replay(nil, name, want)
	obs.SetEnabled(prev)
	if !e.g.op("replay, telemetry off", err) {
		return
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	on, err := e.replay(sp, name, want)
	runtime.ReadMemStats(&after)
	if !e.g.op("replay, telemetry on", err) {
		return
	}
	s.add("obs.telemetry_tax", float64(on.Elapsed)/float64(off.Elapsed))
	s.add("trace.replay_alloc_bytes_per_event", float64(after.TotalAlloc-before.TotalAlloc)/float64(on.Events))
	s.add("core.replay_attempts_per_match", float64(on.Attempts)/float64(on.Jobs))
}

// servedLayers reads the daemon round from the client's side and from the
// timings the API reports.
func (e *env) servedLayers(s samples, r round) {
	total := len(r.jobs) + r.rejected
	if total == 0 {
		return
	}
	s.add("server.rejected_share", float64(r.rejected)/float64(total))
	if len(r.jobs) == 0 {
		return
	}
	var submit, resolve, overhead, queue []float64
	for _, j := range r.jobs {
		submit = append(submit, ms(j.submit))
		resolve = append(resolve, j.resolveMS)
		overhead = append(overhead, ms(j.latency)-j.queueMS-j.executeMS)
		queue = append(queue, j.queueMS)
	}
	s.add("server.submit_ms_p50", median(submit))
	s.add("server.resolve_ms_p50", median(resolve))
	s.add("server.overhead_ms_p50", median(overhead))
	s.add("sched.queue_wait_ms_p50", median(queue))
	if rate, err := e.daemon.cacheHitRate(); e.g.op("scrape /metrics", err) {
		s.add("server.cache_hit_rate", rate)
	}
}

// --- bare-layer probes ---

// noHooks is the no-op interp.Hooks of a CPU with no runtime around it.
type noHooks struct{}

func (noHooks) Syscall(int64, []uint64) (uint64, error)   { return 0, nil }
func (noHooks) Intrinsic(int64, []uint64) (uint64, error) { return 0, nil }
func (noHooks) Probe(int64, uint64)                       {}
func (noHooks) Poll() error                               { return nil }

// kernelModule is the workload's per-iteration CPU work — the branchy
// integer loop and the floating-point loop workloads.Spec emits — as a
// one-function module with no intrinsics, repeated iters times.
func kernelModule(branchy, float, iters int) (*tir.Module, error) {
	mb := tir.NewModuleBuilder()
	fb := mb.Func("kernel", 0)
	acc, one, i, lim, c := fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.NewReg()
	fb.ConstI(acc, 0)
	fb.ConstI(one, 1)
	fb.ConstI(i, 0)
	fb.ConstI(lim, int64(iters))
	loop, done := fb.NewLabel(), fb.NewLabel()
	fb.Bind(loop)
	fb.Bin(tir.LtS, c, i, lim)
	fb.Brz(c, done)
	if branchy > 0 {
		j, jl, jc, t := fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.NewReg()
		fb.ConstI(j, 0)
		fb.ConstI(jl, int64(branchy))
		jLoop, jDone, jOdd, jNext := fb.NewLabel(), fb.NewLabel(), fb.NewLabel(), fb.NewLabel()
		fb.Bind(jLoop)
		fb.Bin(tir.LtS, jc, j, jl)
		fb.Brz(jc, jDone)
		fb.Bin(tir.And, t, j, one)
		fb.Br(t, jOdd)
		fb.Bin(tir.Add, acc, acc, j)
		fb.Jmp(jNext)
		fb.Bind(jOdd)
		fb.Bin(tir.Xor, acc, acc, j)
		fb.Bind(jNext)
		fb.AddI(j, j, 1)
		fb.Jmp(jLoop)
		fb.Bind(jDone)
	}
	if float > 0 {
		f, finc, k, kl, kc := fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.NewReg(), fb.NewReg()
		fb.ConstI(f, 4607182418800017408) // bits of 1.0
		fb.ConstI(finc, 4607632778762754458)
		fb.ConstI(k, 0)
		fb.ConstI(kl, int64(float))
		kLoop, kDone := fb.NewLabel(), fb.NewLabel()
		fb.Bind(kLoop)
		fb.Bin(tir.LtS, kc, k, kl)
		fb.Brz(kc, kDone)
		fb.Bin(tir.FMul, f, f, finc)
		fb.Emit(tir.Instr{Op: tir.FSqrt, A: f, B: f})
		fb.Bin(tir.FAdd, f, f, finc)
		fb.AddI(k, k, 1)
		fb.Jmp(kLoop)
		fb.Bind(kDone)
		fi := fb.NewReg()
		fb.Emit(tir.Instr{Op: tir.FtoI, A: fi, B: f})
		fb.Bin(tir.Add, acc, acc, fi)
	}
	fb.Bin(tir.Add, i, i, one)
	fb.Jmp(loop)
	fb.Bind(done)
	fb.Ret(acc)
	fb.Seal()
	mb.SetEntry("kernel")
	return mb.Build()
}

// probeLoop times n calls of f and returns nanoseconds and heap allocations
// per call.
func probeLoop(n int, f func()) (ns, allocs float64) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < n; i++ {
		f()
	}
	d := time.Since(start)
	runtime.ReadMemStats(&after)
	return float64(d.Nanoseconds()) / float64(n), float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probes time one layer at a time with nothing around it, on the workload's
// own data: its CPU kernel, its post-run memory image (done is a completed
// replay's runtime), its live heap and allocation size, its input file.
func (e *env) probes(s samples, sp *obs.Span, done *core.Runtime) {
	spec := e.w.Spec
	w := newStopwatch(sp)

	// About fifteen million instructions, ~50 ms at the interpreter's speed.
	perIter := 8*spec.CPUBranchy + 7*spec.CPUFloat + 4
	mod, err := kernelModule(spec.CPUBranchy, spec.CPUFloat, 15_000_000/perIter+1)
	if e.g.op("kernel module", err) {
		m := mem.New(mem.Config{GlobalSize: 4096, HeapSize: 4096, StackSlot: 64 << 10, MaxThreads: 1})
		base, size := m.StackRange(0)
		cpu := interp.New(mod, m, noHooks{}, base, size)
		cpu.Start(mod.Entry, nil)
		w.lap("probe.setup")
		ns, allocs := probeLoop(20000, func() { cpu.SetContext(cpu.GetContext()) })
		w.lap("interp.context_roundtrip")
		s.add("interp.context_roundtrip_ns", ns)
		s.add("interp.context_roundtrip_allocs", allocs)
		err := cpu.Run()
		d := w.lap("interp.run")
		if e.g.op("kernel run", err) {
			s.add("interp.ns_per_instr", float64(d.Nanoseconds())/float64(cpu.Instructions()))
		}
	}

	image := done.Mem()
	w.lap("probe.setup")
	snap := image.Snapshot()
	s.add("mem.snapshot_ms", ms(w.lap("mem.snapshot")))
	image.Restore(snap)
	s.add("mem.restore_ms", ms(w.lap("mem.restore")))

	// A bare allocator holding what the program's workers keep live: their
	// working-set buffers and result blocks. (The completed runtime's own
	// allocator fetches through a gate that is closed once it shut down.)
	alloc := heap.NewDeterministic(mem.New(mem.DefaultConfig()))
	for t := 1; t <= spec.Threads; t++ {
		alloc.Malloc(int32(t), spec.WorkingSet/int64(spec.Threads))
		alloc.Malloc(int32(t), 32)
	}
	size := spec.AllocSize
	if size == 0 {
		size = 64 // the workload does not allocate in its loop
	}
	var failed error
	ns, _ := probeLoop(20000, func() {
		addr := alloc.Malloc(1, size)
		if addr == 0 {
			failed = errors.New("heap probe: arena exhausted")
			return
		}
		if err := alloc.Free(1, addr); err != nil {
			failed = err
		}
	})
	w.lap("heap.malloc_free")
	if e.g.op("heap probe", failed) {
		s.add("heap.malloc_free_ns", ns)
	}
	_ = alloc.Snapshot()
	s.add("heap.snapshot_ms", ms(w.lap("heap.snapshot")))

	// The workload's input file, read the way its loop reads it; a workload
	// without file IO gets a 64 KiB file read a KiB at a time.
	os := vsys.New(1, e.seed)
	path, chunk := spec.Name+".dat", spec.FileIO
	spec.SetupOS(os)
	if chunk == 0 {
		chunk = 1024
		os.AddFile(path, make([]byte, 64<<10))
	}
	fd, err := os.Open(path)
	w.lap("probe.setup")
	read := 0
	for err == nil && read < 4<<20 {
		var b []byte
		if b, err = os.Read(fd, chunk); len(b) == 0 {
			break
		}
		read += len(b)
	}
	d := w.lap("vsys.read")
	if e.g.op("vsys probe", err) && read > 0 {
		s.add("vsys.read_ns_per_kib", float64(d.Nanoseconds())/(float64(read)/1024))
	}

	tl, vl := record.NewThreadList(4096), record.NewVarList(8192)
	ns, _ = probeLoop(1_000_000, func() {
		if tl.Append(record.Event{Kind: 1, Var: 0x1000, Pos: 7}) {
			tl.Clear()
		}
		if _, full := vl.Append(1); full {
			vl.Clear()
		}
	})
	w.lap("record.append")
	s.add("record.append_ns", ns)

	const items = 512
	elapsed := sched.RunPool(items, e.workers, func(int) {})
	w.lap("sched.pool_dispatch")
	s.add("sched.pool_dispatch_us", float64(elapsed.Nanoseconds())/1e3/items)
}
