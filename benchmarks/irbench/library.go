package main

// The library phases: the program run through the entry points the CLIs
// use — core.New+Run, a streaming trace.Writer into Store.Create,
// trace.ReplayBatch, trace.AnalyzeBatch, trace.ReplaySegments,
// trace.AnalyzeSegments and trace.ReplayMidSegment — each followed by the
// checks that make its number trustworthy. Every function takes the span to
// record under; nil (the untraced run) records nothing.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/trace"
)

// run builds a runtime for the workload's program, installs its input
// files, and times Run. prep, when non-nil, sees the runtime first.
func (e *env) run(sp *obs.Span, name string, opts core.Options, prep func(*core.Runtime) error) (*core.Report, time.Duration, error) {
	rt, err := core.New(e.mod, opts)
	if err != nil {
		return nil, 0, err
	}
	e.w.Spec.SetupOS(rt.OS())
	if prep != nil {
		if err := prep(rt); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	rep, err := rt.Run()
	wall := time.Since(start)
	sp.Record(name, start, start.Add(wall))
	if err != nil {
		return nil, wall, fmt.Errorf("%s: %w", name, err)
	}
	return rep, wall, nil
}

// baseline times the unrecorded program under the default-library
// allocator — the denominator of Table 3.
func (e *env) baseline(sp *obs.Span) (time.Duration, error) {
	_, wall, err := e.run(sp, "core.baseline", core.Options{
		Seed: e.seed, ASLRSeed: e.seed, DisableRecording: true, UseLibCAllocator: true,
	}, nil)
	return wall, err
}

// recording is one record phase's outcome.
type recording struct {
	rep    *core.Report
	events int64
	bytes  int64
	ckpts  int
	// wall covers Run, Writer.Finish and PartialTrace.Commit; runWall Run
	// alone.
	wall, runWall time.Duration
	// The sink shims' accounting (always kept; the spans are traced-only).
	sinkEpoch, sinkCkpt, finishCommit time.Duration
	// cks are the first two exported checkpoints, for the delta probes
	// (kept only under a span).
	cks []*core.Checkpoint
}

// record streams a recording of the program into store st under name, with
// the given checkpoint cadence and event-list capacity (0: the default).
// The writer's sinks are wrapped in shims that count events and time each
// call; under a span they also record one child span per call.
func (e *env) record(sp *obs.Span, st *trace.Store, name string, ckptEvery, eventCap int) (*recording, error) {
	p, err := st.Create(name)
	if err != nil {
		return nil, err
	}
	defer p.Abort()
	w, err := trace.NewWriter(p, trace.Header{
		App: e.w.Spec.Name, ModuleHash: e.hash, Seed: e.seed, EventCap: eventCap, AppIters: e.w.Spec.Iters,
	})
	if err != nil {
		return nil, err
	}
	r := &recording{}
	var runSp *obs.Span // opened just before Run, so it covers Run and nothing else
	opts := core.Options{Seed: e.seed, EventCap: eventCap}
	epochSink := w.Sink()
	opts.TraceSink = func(ep *record.EpochLog) error {
		r.events += int64(ep.EventCount())
		start := time.Now()
		err := epochSink(ep)
		d := time.Since(start)
		r.sinkEpoch += d
		runSp.Record("trace.write_epoch", start, start.Add(d))
		return err
	}
	if ckptEvery > 0 {
		ckptSink := w.CheckpointSink()
		opts.CheckpointEvery = ckptEvery
		opts.CheckpointSink = func(ck *core.Checkpoint) error {
			if sp != nil && len(r.cks) < 2 {
				r.cks = append(r.cks, ck) // each pins a memory image: traced runs only
			}
			start := time.Now()
			err := ckptSink(ck)
			d := time.Since(start)
			r.sinkCkpt += d
			runSp.Record("trace.write_checkpoint", start, start.Add(d))
			return err
		}
	}
	r.rep, r.runWall, err = e.run(nil, "", opts, func(*core.Runtime) error {
		runSp = sp.Child("core.run")
		return nil
	})
	runSp.End()
	if err != nil {
		return nil, err
	}
	finish := time.Now()
	if err := w.Finish(&trace.Summary{Exit: r.rep.Exit, Output: r.rep.Output}); err != nil {
		return nil, err
	}
	r.bytes = p.Bytes()
	if err := p.Commit(); err != nil {
		return nil, err
	}
	end := time.Now()
	r.finishCommit = end.Sub(finish)
	sp.Record("trace.finish_commit", finish, end)
	// The phase wall excludes runtime construction and input installation,
	// as the baseline's does.
	r.wall = r.runWall + r.finishCommit
	r.ckpts = w.Ckpts()
	if r.events == 0 {
		return nil, errors.New("record: no events recorded")
	}
	return r, nil
}

// insituRun is one in-situ phase's outcome: every epoch rolled back and
// re-executed once, in the recording process — the paper's headline path.
type insituRun struct {
	events     int64         // events of the epochs re-executed
	replayTime time.Duration // summed OnEpochEnd → OnReplayMatched
	ratios     []float64     // per epoch, replay time ÷ the epoch's original duration
	stats      core.Stats
}

func (e *env) insitu(sp *obs.Span) (*insituRun, error) {
	r := &insituRun{}
	boundaries, matches := 0, 0
	// The three hooks run on the runtime's coordinator goroutine, one epoch
	// boundary at a time, so they share state without locking.
	var epochStart, boundary time.Time
	matched := false
	opts := core.Options{Seed: e.seed}
	opts.OnEpochEnd = func(*core.Runtime, core.EpochEndInfo) core.Decision {
		boundaries++
		boundary = time.Now()
		return core.Replay
	}
	opts.OnReplayMatched = func(*core.Runtime, int) core.Decision {
		now := time.Now()
		d := now.Sub(boundary)
		r.replayTime += d
		if orig := boundary.Sub(epochStart); orig > 0 {
			r.ratios = append(r.ratios, float64(d)/float64(orig))
		}
		sp.Record("core.rollback", boundary, now)
		matched = true
		matches++
		return core.Proceed
	}
	opts.TraceSink = func(ep *record.EpochLog) error {
		if matched {
			r.events += int64(ep.EventCount())
			matched = false
		}
		epochStart = time.Now()
		return nil
	}
	rep, _, err := e.run(sp, "core.insitu", opts, func(*core.Runtime) error {
		epochStart = time.Now()
		return nil
	})
	if err != nil {
		return nil, err
	}
	// This is its own execution (the virtual clock makes outcomes differ run
	// to run), so identity here is the runtime's verdict: every epoch's
	// re-execution reproduced the schedule it had just recorded.
	r.stats = rep.Stats
	if matches == 0 || matches != boundaries {
		return nil, fmt.Errorf("in-situ run matched %d of %d epoch replays", matches, boundaries)
	}
	return r, nil
}

// sameOutcome is the identity check: exit value and program output equal
// the recording's.
func sameOutcome(what string, got, want *core.Report) error {
	if got == nil {
		return fmt.Errorf("%s produced no report", what)
	}
	if got.Exit != want.Exit {
		return fmt.Errorf("%s exit %d, recorded %d", what, got.Exit, want.Exit)
	}
	if got.Output != want.Output {
		return fmt.Errorf("%s output differs from the recording's", what)
	}
	return nil
}

// openLib opens the recording through a fresh store, so every offline
// phase starts with a cold decode cache.
func (e *env) openLib(name string) (*trace.Handle, error) {
	st, err := trace.OpenStore(e.libDir)
	if err != nil {
		return nil, err
	}
	return st.Open(name)
}

func (e *env) job(h *trace.Handle, sp *obs.Span) trace.Job {
	return trace.Job{
		Name: e.w.Name, Module: e.mod, Handle: h, Span: sp,
		Opts:  core.Options{Seed: e.seed, EventCap: h.Header().EventCap, DelayOnDivergence: true},
		Setup: func(rt *core.Runtime) error { e.w.Spec.SetupOS(rt.OS()); return nil },
	}
}

func newAnalyzers() []analysis.Analyzer {
	return []analysis.Analyzer{analysis.NewRaceDetector(), analysis.NewLeakDetector()}
}

func (e *env) analyzeJob(h *trace.Handle, sp *obs.Span) trace.AnalyzeJob {
	return trace.AnalyzeJob{Job: e.job(h, sp), NewAnalyzers: newAnalyzers}
}

// replay is trace.ReplayBatch of one job on one worker.
func (e *env) replay(sp *obs.Span, name string, want *core.Report) (trace.BatchStats, error) {
	h, err := e.openLib(name)
	if err != nil {
		return trace.BatchStats{}, err
	}
	defer h.Close()
	c := sp.Child("trace.ReplayBatch")
	res, stats := trace.ReplayBatch([]trace.Job{e.job(h, c)}, 1)
	c.End()
	if !res[0].Matched || res[0].Err != nil {
		return stats, fmt.Errorf("replay did not match: %v", res[0].Err)
	}
	return stats, sameOutcome("replay", res[0].Report, want)
}

// checkFindings pins the analyzers' verdict on these race-free programs:
// no race, and exactly the workload's known leaks.
func (e *env) checkFindings(fs []analysis.Finding) error {
	races, leaks := 0, 0
	for _, f := range fs {
		switch f.Kind {
		case "data-race":
			races++
		case "memory-leak":
			leaks++
		}
	}
	if races != 0 || leaks != e.w.leaks() {
		return fmt.Errorf("findings: %d races (want 0), %d leaks (want %d)", races, leaks, e.w.leaks())
	}
	return nil
}

func (e *env) checkAnalysis(what string, r *trace.AnalyzeResult, want *core.Report) error {
	if !r.Matched || r.Err != nil {
		return fmt.Errorf("%s did not match: %v", what, r.Err)
	}
	if err := sameOutcome(what, r.Report, want); err != nil {
		return err
	}
	return e.checkFindings(r.Findings)
}

// analyze is trace.AnalyzeBatch of one job (race + leak); it also returns
// the findings' JSON, the whole-trace reference the segmented path must
// reproduce byte for byte.
func (e *env) analyze(sp *obs.Span, name string, want *core.Report) (trace.BatchStats, []byte, error) {
	h, err := e.openLib(name)
	if err != nil {
		return trace.BatchStats{}, nil, err
	}
	defer h.Close()
	c := sp.Child("trace.AnalyzeBatch")
	res, stats := trace.AnalyzeBatch([]trace.AnalyzeJob{e.analyzeJob(h, c)}, 1)
	c.End()
	if err := e.checkAnalysis("analyze", &res[0], want); err != nil {
		return stats, nil, err
	}
	js, err := json.Marshal(res[0].Findings)
	return stats, js, err
}

// segmentReplay is trace.ReplaySegments at the host's worker count.
func (e *env) segmentReplay(sp *obs.Span, name string) ([]trace.SegmentResult, trace.BatchStats, error) {
	h, err := e.openLib(name)
	if err != nil {
		return nil, trace.BatchStats{}, err
	}
	defer h.Close()
	c := sp.Child("trace.ReplaySegments")
	res, stats, err := trace.ReplaySegments(e.job(h, c), e.workers)
	c.End()
	if err == nil && stats.Failed > 0 {
		err = fmt.Errorf("%d of %d segments failed", stats.Failed, stats.Jobs)
	}
	return res, stats, err
}

// segmentAnalyze is trace.AnalyzeSegments; its findings must equal the
// whole-trace findings whole byte for byte.
func (e *env) segmentAnalyze(sp *obs.Span, name string, want *core.Report, whole []byte) (trace.AnalyzeResult, trace.BatchStats, error) {
	h, err := e.openLib(name)
	if err != nil {
		return trace.AnalyzeResult{}, trace.BatchStats{}, err
	}
	defer h.Close()
	c := sp.Child("trace.AnalyzeSegments")
	res, stats, err := trace.AnalyzeSegments(e.analyzeJob(h, c), e.workers)
	c.End()
	if err != nil {
		return res, stats, err
	}
	if err := e.checkAnalysis("segmented analyze", &res, want); err != nil {
		return res, stats, err
	}
	js, err := json.Marshal(res.Findings)
	if err != nil {
		return res, stats, err
	}
	if !bytes.Equal(js, whole) {
		return res, stats, errors.New("segmented findings differ from whole-trace findings")
	}
	return res, stats, nil
}

// coldstart opens a fresh store and the trace and replays its middle
// segment: the time to first answer from a trace nothing has touched.
func (e *env) coldstart(sp *obs.Span, name string) (time.Duration, error) {
	start := time.Now()
	h, err := e.openLib(name)
	if err != nil {
		return 0, err
	}
	defer h.Close()
	_, _, err = trace.ReplayMidSegment(e.job(h, nil))
	wall := time.Since(start)
	sp.Record("trace.ReplayMidSegment", start, start.Add(wall))
	return wall, err
}
