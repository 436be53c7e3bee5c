package gen

// The differential harness: one generated program in, every replay-path
// identity the repo promises checked against it. Check records the
// program once, then asserts
//
//	(a) whole-trace replay identity — exit code, output, and final heap
//	    image byte-match the recording,
//	(b) segment-vs-whole equivalence — the checkpointed recording replays
//	    segment-parallel with every interior segment byte-matching the
//	    next checkpoint (enforced inside ReplaySegments) and the stitched
//	    output reproducing the whole,
//	(c) analyzer ground truth — race-free generations produce zero
//	    findings; racy generations produce data-race findings naming
//	    exactly the planted pair, and the findings are identical across
//	    repeated analysis runs and across the segment-parallel analysis
//	    path (per-segment tapes folded through checkpointed analyzer
//	    state),
//	(d) representation identity — the same equivalences hold after
//	    Store.Compact re-encoding (deflated frames, the default keyframe
//	    interval) and for the flight-ring spill of the very same run.
//
// Tamper injects a fault into the recorded artifact before checking, so
// tests can prove the oracle has teeth: a harness that passes a tampered
// trace is a broken harness.

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/record"
	"repro/internal/tir"
	"repro/internal/trace"
)

// Config parameterizes one differential check.
type Config struct {
	// EventCap is the recording's per-thread event list size; the small
	// default (24) forces every generation across multiple epochs.
	EventCap int
	// CheckpointEvery is the recording's checkpoint cadence in epochs
	// (default 2), which is what gives segment replay its cut points.
	CheckpointEvery int
	// Workers bounds segment-replay parallelism (default 2).
	Workers int
	// MaxReplays bounds divergence retries per replay (default 8): a
	// tampered trace must fail fast, not spin through the offline
	// replayer's 256-attempt default.
	MaxReplays int
	// Dir, when set, is the scratch directory for the store-based checks;
	// empty uses a private temp directory per call.
	Dir string
	// Tamper corrupts the recorded trace before checking (oracle
	// self-test); TamperNone checks the genuine artifact.
	Tamper Tamper
}

func (c *Config) fill() {
	if c.EventCap == 0 {
		c.EventCap = 24
	}
	if c.CheckpointEvery == 0 {
		c.CheckpointEvery = 2
	}
	if c.Workers == 0 {
		c.Workers = 2
	}
	if c.MaxReplays == 0 {
		c.MaxReplays = 8
	}
}

// Tamper selects a deliberate corruption of the recorded trace.
type Tamper int

const (
	// TamperNone leaves the recording intact.
	TamperNone Tamper = iota
	// TamperOutput corrupts the summary's recorded output — the replay
	// output oracle must notice.
	TamperOutput
	// TamperOrder flips a recorded lock-acquisition order — replay must
	// either diverge or produce different observed values.
	TamperOrder
	// TamperDropEpoch deletes the final epoch — the replay cannot reach
	// the recorded end state.
	TamperDropEpoch
)

// Check runs the full differential pipeline over p and returns the first
// violated equivalence (nil when every check passes).
func (cfg Config) Check(p *Prog) error {
	cfg.fill()
	if err := p.Validate(); err != nil {
		return err
	}
	mod, err := p.Build()
	if err != nil {
		return err
	}

	dir := cfg.Dir
	if dir == "" {
		var terr error
		dir, terr = os.MkdirTemp("", "ir-fuzz")
		if terr != nil {
			return terr
		}
		defer os.RemoveAll(dir)
	}

	hdr := trace.Header{
		App:        "gen",
		ModuleHash: tir.Fingerprint(mod),
		EventCap:   cfg.EventCap,
		Seed:       p.Seed,
	}

	// --- record once, with the trace writer and a flight ring attached ---
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf, hdr)
	if err != nil {
		return err
	}
	fr, err := flight.New(filepath.Join(dir, "ring.ir"), hdr, 2)
	if err != nil {
		return err
	}
	defer fr.Close()
	rt, err := core.New(mod, core.Options{
		Seed:            p.Seed,
		EventCap:        cfg.EventCap,
		TraceSink:       w.Sink(),
		CheckpointEvery: cfg.CheckpointEvery,
		CheckpointSink:  w.CheckpointSink(),
		FlightRecorder:  fr,
	})
	if err != nil {
		return err
	}
	p.SetupOS(rt.OS())
	rep, err := rt.Run()
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	recHeap := rt.Mem().HeapImage()
	rt.Release()
	sum := &trace.Summary{Exit: rep.Exit, Output: rep.Output}
	if err := w.Finish(sum); err != nil {
		return err
	}
	raw := buf.Bytes()
	if cfg.Tamper != TamperNone {
		if raw, err = tamper(raw, cfg.Tamper); err != nil {
			return err
		}
	}

	ropts := core.Options{
		Seed:              p.Seed,
		EventCap:          cfg.EventCap,
		MaxReplays:        cfg.MaxReplays,
		DelayOnDivergence: true,
	}
	setup := func(rt *core.Runtime) error { p.SetupOS(rt.OS()); return nil }

	h, err := trace.OpenBytes(raw)
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}

	// --- (a) whole-trace replay identity, including the heap image ---
	if err := cfg.replayIdentical(p, mod, h, ropts, recHeap); err != nil {
		return fmt.Errorf("whole-replay: %w", err)
	}

	// --- (b) segment-vs-whole equivalence ---
	// Racy programs are excluded: a segment's end state is byte-compared
	// against the next recording-time checkpoint, and the planted racy
	// cell may legitimately hold a different lost-update value when the
	// unlocked accesses re-interleave. Race-free programs have no such
	// byte, so any mismatch is a stitching bug.
	if !p.Racy() {
		if err := cfg.segmentsStitch(p, mod, h, ropts); err != nil {
			return fmt.Errorf("segment-replay: %w", err)
		}
	}

	// --- (c) analyzer ground truth and determinism ---
	findings, err := cfg.analyze(mod, h, ropts, setup)
	if err != nil {
		return fmt.Errorf("analyze: %w", err)
	}
	again, err := cfg.analyze(mod, h, ropts, setup)
	if err != nil {
		return fmt.Errorf("analyze (rerun): %w", err)
	}
	// Race-free findings (the empty set) must be bitwise stable across
	// runs. Racy programs get the semantic check on every run instead:
	// the *verdict* — the planted pair, and nothing else — is what the
	// detector guarantees, while the observation order of the unlocked
	// accesses (and hence finding order and read/write attribution) may
	// legitimately vary between replays.
	if !p.Racy() && !reflect.DeepEqual(findings, again) {
		return fmt.Errorf("analyze: findings differ between runs: %v vs %v", findings, again)
	}
	if err := p.checkFindings(findings); err != nil {
		return err
	}
	if err := p.checkFindings(again); err != nil {
		return fmt.Errorf("rerun: %w", err)
	}
	// The same recording analyzed segment-parallel — per-segment tapes
	// folded through checkpointed analyzer state — must agree with the
	// whole-trace analysis: bitwise for race-free programs, by semantic
	// verdict for racy ones (whose observation order varies per replay on
	// both paths).
	segRes, _, err := trace.AnalyzeSegments(trace.AnalyzeJob{
		Job:          trace.Job{Name: "gen", Module: mod, Handle: h, Opts: ropts, Setup: setup},
		NewAnalyzers: raceAndLeak,
	}, cfg.Workers)
	if err != nil {
		return fmt.Errorf("segment-analyze: %w", err)
	}
	if !segRes.Matched {
		return fmt.Errorf("segment-analyze: %w", segRes.Err)
	}
	if !p.Racy() && !reflect.DeepEqual(findings, segRes.Findings) {
		return fmt.Errorf("segment-analyze: findings differ from whole-trace: %v vs %v",
			findings, segRes.Findings)
	}
	if err := p.checkFindings(segRes.Findings); err != nil {
		return fmt.Errorf("segment-analyze: %w", err)
	}

	// --- (d) identity across compaction and flight spill ---
	// The recording is committed the way every recorder commits one, then
	// compacted: deflated frames and a re-chained checkpoint sequence at the
	// writer's default keyframe interval.
	st, err := trace.OpenStore(dir)
	if err != nil {
		return err
	}
	pt, err := st.Create("gen")
	if err != nil {
		return err
	}
	defer pt.Abort()
	if _, err := pt.Write(raw); err != nil {
		return err
	}
	if err := pt.Commit(); err != nil {
		return err
	}
	if _, err := st.Compact("gen"); err != nil {
		return fmt.Errorf("compact: %w", err)
	}
	ch, err := st.Open("gen")
	if err != nil {
		return err
	}
	defer ch.Close()
	if err := cfg.replayIdentical(p, mod, ch, ropts, recHeap); err != nil {
		return fmt.Errorf("compacted-replay: %w", err)
	}
	if !p.Racy() {
		if err := cfg.segmentsStitch(p, mod, ch, ropts); err != nil {
			return fmt.Errorf("compacted-segment-replay: %w", err)
		}
	}
	cfindings, err := cfg.analyze(mod, ch, ropts, setup)
	if err != nil {
		return fmt.Errorf("compacted-analyze: %w", err)
	}
	if !p.Racy() && !reflect.DeepEqual(findings, cfindings) {
		return fmt.Errorf("compact: findings changed: %v vs %v", findings, cfindings)
	}
	if err := p.checkFindings(cfindings); err != nil {
		return fmt.Errorf("compact: %w", err)
	}

	// The ring recorded the same run; its retained-suffix spill must
	// replay and match the (possibly trimmed) summary oracle.
	if _, err := fr.Spill(st, "gen-flt", sum); err != nil {
		return fmt.Errorf("flight-spill: %w", err)
	}
	fh, err := st.Open("gen-flt")
	if err != nil {
		return err
	}
	results, _ := trace.ReplayBatch([]trace.Job{{
		Name: "gen-flt", Module: mod, Handle: fh, Opts: ropts, Setup: setup,
	}}, 1)
	if !results[0].Matched || results[0].Err != nil {
		return fmt.Errorf("flight-replay: matched=%v err=%v", results[0].Matched, results[0].Err)
	}
	return nil
}

// replayIdentical replays the whole trace behind h and checks the full
// identity claim: matched schedule, recorded exit and output, and a
// byte-identical final heap.
//
// It is the one replay driver kept outside the trace executor, on purpose:
// the executor does not hand out its completed runtime, so only a driver of
// its own can compare the final heap image — and an independent driver is
// what lets this harness catch a bug in the executor instead of sharing it.
func (cfg Config) replayIdentical(p *Prog, mod *tir.Module, h *trace.Handle, ropts core.Options, recHeap []byte) error {
	epochs, err := h.Epochs(h.EpochRange())
	if err != nil {
		return err
	}
	f := record.NewFlattener()
	for _, ep := range epochs {
		f.Add(ep)
	}
	fl, err := f.Flat()
	if err != nil {
		return err
	}
	rt, err := core.PrepareReplayFlatAt(mod, nil, fl, nil, ropts)
	if err != nil {
		return err
	}
	p.SetupOS(rt.OS())
	rep, err := rt.RunReplay()
	defer rt.Release() // after the heap image below is read
	if err != nil {
		return err
	}
	sum := h.Summary()
	if sum != nil && !sum.Partial {
		if rep.Exit != sum.Exit {
			return fmt.Errorf("replayed exit %d, recorded %d", rep.Exit, sum.Exit)
		}
		if rep.Output != sum.Output {
			return fmt.Errorf("replayed output %q, recorded %q", rep.Output, sum.Output)
		}
	}
	heap := rt.Mem().HeapImage()
	if !bytes.Equal(heap, recHeap) {
		return fmt.Errorf("final heap image differs from recording (%d bytes)", len(heap))
	}
	return nil
}

// segmentsStitch replays the checkpointed recording segment-parallel.
// ReplaySegments itself enforces the interior byte-match against each next
// checkpoint and the stitched-output/exit oracle; here the batch must also
// come back fully matched with every recorded event consumed.
func (cfg Config) segmentsStitch(p *Prog, mod *tir.Module, h *trace.Handle, ropts core.Options) error {
	job := trace.Job{
		Name: "gen", Module: mod, Handle: h, Opts: ropts,
		Setup: func(rt *core.Runtime) error { p.SetupOS(rt.OS()); return nil },
	}
	results, stats, err := trace.ReplaySegments(job, cfg.Workers)
	if err != nil {
		return err
	}
	if stats.Failed != 0 || stats.Matched != stats.Jobs {
		for _, r := range results {
			if r.Err != nil {
				return fmt.Errorf("segment %s: %w", r.Name, r.Err)
			}
		}
		return fmt.Errorf("stats %+v with no per-segment error", stats)
	}
	if stats.Events != h.EventCount() {
		return fmt.Errorf("segments replayed %d events, recording holds %d", stats.Events, h.EventCount())
	}
	return nil
}

// analyze replays the whole trace behind h under the race and leak
// detectors, through the executor's whole-trace path (trace.AnalyzeBatch).
func (cfg Config) analyze(mod *tir.Module, h *trace.Handle, ropts core.Options,
	setup func(*core.Runtime) error) ([]analysis.Finding, error) {
	res, _ := trace.AnalyzeBatch([]trace.AnalyzeJob{{
		Job:          trace.Job{Name: "gen", Module: mod, Handle: h, Opts: ropts, Setup: setup},
		NewAnalyzers: raceAndLeak,
	}}, 1)
	return res[0].Findings, res[0].Err
}

// raceAndLeak is the harness's analyzer set.
func raceAndLeak() []analysis.Analyzer {
	return []analysis.Analyzer{analysis.NewRaceDetector(), analysis.NewLeakDetector()}
}

// checkFindings asserts the analyzer ground truth the generator
// guarantees: race-free programs yield nothing at all; racy programs yield
// only data-race findings whose sites sit in the two planted worker
// frames, at least one finding naming both.
func (p *Prog) checkFindings(findings []analysis.Finding) error {
	if !p.Racy() {
		if len(findings) != 0 {
			return fmt.Errorf("race-free program produced findings (false positives): %v", findings)
		}
		return nil
	}
	want := map[string]bool{WorkerFunc(p.Race.T1): true, WorkerFunc(p.Race.T2): true}
	pairSeen := false
	for _, f := range findings {
		if f.Kind != "data-race" {
			return fmt.Errorf("racy program produced unexpected %s finding: %+v", f.Kind, f)
		}
		funcs := map[string]bool{}
		for _, s := range f.Sites {
			fn := s.Func()
			if !want[fn] {
				return fmt.Errorf("race finding blames %s, planted pair is %s/%s",
					fn, WorkerFunc(p.Race.T1), WorkerFunc(p.Race.T2))
			}
			funcs[fn] = true
		}
		if len(funcs) == 2 {
			pairSeen = true
		}
	}
	if !pairSeen {
		return fmt.Errorf("planted race %s/%s not detected (findings: %v)",
			WorkerFunc(p.Race.T1), WorkerFunc(p.Race.T2), findings)
	}
	return nil
}

// tamper decodes raw, applies the requested corruption, and re-encodes.
func tamper(raw []byte, mode Tamper) ([]byte, error) {
	tr, err := trace.Decode(raw)
	if err != nil {
		return nil, err
	}
	switch mode {
	case TamperOutput:
		if tr.Summary == nil {
			return nil, fmt.Errorf("gen: tamper: trace has no summary")
		}
		tr.Summary.Output = "tampered\n" + tr.Summary.Output
	case TamperOrder:
		if !tamperOrder(tr) {
			return nil, fmt.Errorf("gen: tamper: no contended lock order to flip")
		}
	case TamperDropEpoch:
		if len(tr.Epochs) < 2 {
			return nil, fmt.Errorf("gen: tamper: trace too short to drop an epoch")
		}
		tr.Epochs = tr.Epochs[:len(tr.Epochs)-1]
		tr.Checkpoints = nil // indexes into dropped territory would dangle
	default:
		return nil, fmt.Errorf("gen: unknown tamper mode %d", mode)
	}
	return trace.Encode(tr)
}

// tamperOrder flips one recorded mutex acquisition between two threads:
// it finds a mutex two different threads locked at adjacent slots within
// one epoch and swaps both the events' positions and the variable's order
// entries, a coherent recording of a schedule that never happened. Replay
// then executes the critical sections in the flipped order, so the
// per-thread observed values — and with them the published heap bytes —
// cannot all match the original recording. Returns false when no epoch
// holds a contended adjacent pair.
func tamperOrder(tr *trace.Trace) bool {
	for _, ep := range tr.Epochs {
		type slot struct {
			ti, ei int // thread, event indexes into ep.Threads
		}
		byVar := map[uint64]map[int32]slot{} // var -> pos -> location
		for ti := range ep.Threads {
			tl := &ep.Threads[ti]
			for ei := range tl.Events {
				ev := &tl.Events[ei]
				if ev.Kind != record.KMutexLock || ev.Pos < 0 {
					continue
				}
				if byVar[ev.Var] == nil {
					byVar[ev.Var] = map[int32]slot{}
				}
				byVar[ev.Var][ev.Pos] = slot{ti, ei}
			}
		}
		for addr, slots := range byVar {
			for pos, a := range slots {
				b, ok := slots[pos+1]
				if !ok || a.ti == b.ti {
					continue
				}
				ea := &ep.Threads[a.ti].Events[a.ei]
				eb := &ep.Threads[b.ti].Events[b.ei]
				ea.Pos, eb.Pos = eb.Pos, ea.Pos
				for vi := range ep.Vars {
					if ep.Vars[vi].Addr != addr {
						continue
					}
					ord := ep.Vars[vi].Order
					if int(pos)+1 < len(ord) {
						ord[pos], ord[pos+1] = ord[pos+1], ord[pos]
					}
				}
				return true
			}
		}
	}
	return false
}
