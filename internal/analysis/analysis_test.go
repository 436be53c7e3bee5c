package analysis

import (
	"testing"

	"repro/internal/core"
	"repro/internal/hostrace"
	"repro/internal/mem"
	"repro/internal/record"
	"repro/internal/tir"
	"repro/internal/workloads"
)

// recordEpochs runs mod under full recording and returns the flushed epoch
// logs plus the recording report.
func recordEpochs(t testing.TB, mod *tir.Module, opts core.Options,
	setup func(*core.Runtime)) ([]*record.EpochLog, *core.Report) {
	t.Helper()
	var epochs []*record.EpochLog
	opts.TraceSink = func(ep *record.EpochLog) error {
		epochs = append(epochs, ep)
		return nil
	}
	rt, err := core.New(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(rt)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("recording: %v", err)
	}
	if len(epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
	return epochs, rep
}

// pairKey returns the unordered innermost-function pair of a race finding.
func pairKey(f Finding) [2]string {
	if len(f.Sites) != 2 {
		return [2]string{"?", "?"}
	}
	a, b := f.Sites[0].Func(), f.Sites[1].Func()
	if b < a {
		a, b = b, a
	}
	return [2]string{a, b}
}

// TestRaceCorpusGroundTruth: on every corpus entry the race analyzer must
// blame exactly the known racing pairs — each expected pair reported with
// both call stacks, and no pair outside the expected set (zero false
// positives; the norace-* controls expect the empty set).
//
//ir:racy executes the deliberately-racy analysis corpus to check blame assignment
func TestRaceCorpusGroundTruth(t *testing.T) {
	for _, c := range workloads.AnalysisCorpus() {
		if c.Leaks > 0 {
			continue // leak entries are covered below
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			if hostrace.Enabled && len(c.RacePairs) > 0 {
				t.Skip("corpus program races on purpose; skipped under the host race detector")
			}
			mod := c.Build()
			epochs, recRep := recordEpochs(t, mod, core.Options{Seed: 11}, nil)

			race := NewRaceDetector()
			rep, findings, err := Run(mod, epochs, core.Options{}, nil, race)
			if err != nil {
				t.Fatalf("analysis replay: %v", err)
			}
			if rep.Exit != recRep.Exit || rep.Output != recRep.Output {
				t.Fatalf("analysis replay diverged from recording: exit %d/%d",
					rep.Exit, recRep.Exit)
			}

			expected := map[[2]string]bool{}
			for _, p := range c.RacePairs {
				a, b := p[0], p[1]
				if b < a {
					a, b = b, a
				}
				expected[[2]string{a, b}] = true
			}
			seen := map[[2]string]bool{}
			for _, f := range findings {
				k := pairKey(f)
				if !expected[k] {
					t.Errorf("false positive: %v", f)
					continue
				}
				seen[k] = true
				for i, s := range f.Sites {
					if len(s.Stack) == 0 {
						t.Errorf("finding %v: site %d has no call stack", k, i)
					}
				}
			}
			for k := range expected {
				if !seen[k] {
					t.Errorf("known racing pair %v not reported (findings: %v)", k, findings)
				}
			}
		})
	}
}

// TestLeakCorpusGroundTruth: the leak analyzer must report exactly the
// expected number of leaks, each blamed at a known allocation site with a
// call stack, and stay silent on the leak-free control.
func TestLeakCorpusGroundTruth(t *testing.T) {
	for _, c := range workloads.AnalysisCorpus() {
		if len(c.RacePairs) > 0 || (c.Leaks == 0 && c.Name != "noleak-freed") {
			continue
		}
		c := c
		t.Run(c.Name, func(t *testing.T) {
			mod := c.Build()
			epochs, _ := recordEpochs(t, mod, core.Options{Seed: 5}, nil)

			// The caller's Observers slice has spare capacity: Run must attach
			// the analyzer to a copy, not append into the shared backing array.
			observers := make([]core.Observer, 0, 4)
			leak := NewLeakDetector()
			_, findings, err := Run(mod, epochs, core.Options{Observers: observers}, nil, leak)
			if err != nil {
				t.Fatalf("analysis replay: %v", err)
			}
			if observers[:1][0] != nil {
				t.Fatal("Run appended into the caller's Observers backing array")
			}
			if len(findings) != c.Leaks {
				t.Fatalf("want %d leak(s), got %d: %v", c.Leaks, len(findings), findings)
			}
			sites := map[string]bool{}
			for _, s := range c.LeakSites {
				sites[s] = true
			}
			blamed := map[string]bool{}
			for _, f := range findings {
				if len(f.Sites) != 1 || len(f.Sites[0].Stack) == 0 {
					t.Fatalf("leak finding without an allocation-site stack: %v", f)
				}
				fn := f.Sites[0].Func()
				if !sites[fn] {
					t.Errorf("leak blamed at unexpected site %q: %v", fn, f)
				}
				blamed[fn] = true
			}
			for s := range sites {
				if !blamed[s] {
					t.Errorf("known leak site %q never blamed", s)
				}
			}
		})
	}
}

// TestRaceAnalyzerOnRaceFreeWorkloads: zero false positives on real
// (race-free) evaluated applications — mutex striping, barriers, condition
// variables, and allocator traffic must all be ordered by the delivered
// happens-before edges.
func TestRaceAnalyzerOnRaceFreeWorkloads(t *testing.T) {
	for _, name := range []string{"blackscholes", "fluidanimate", "streamcluster"} {
		name := name
		t.Run(name, func(t *testing.T) {
			spec, ok := workloads.ByName(name)
			if !ok {
				t.Fatalf("unknown app %s", name)
			}
			spec.Iters = 8
			mod, err := spec.Build()
			if err != nil {
				t.Fatal(err)
			}
			epochs, _ := recordEpochs(t, mod, core.Options{Seed: 23},
				func(rt *core.Runtime) { spec.SetupOS(rt.OS()) })

			race := NewRaceDetector()
			_, findings, err := Run(mod, epochs, core.Options{DelayOnDivergence: true},
				func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil }, race)
			if err != nil {
				t.Fatalf("analysis replay: %v", err)
			}
			for _, f := range findings {
				t.Errorf("false positive on race-free %s: %v", name, f)
			}
		})
	}
}

// TestAnalyzerCompositionIdentity: several analyzers attached to one replay
// must not perturb identity — exit value, program output, and the final
// heap image must match a bare replay byte for byte.
func TestAnalyzerCompositionIdentity(t *testing.T) {
	spec, ok := workloads.ByName("streamcluster")
	if !ok {
		t.Fatal("unknown app streamcluster")
	}
	spec.Iters = 8
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	epochs, _ := recordEpochs(t, mod, core.Options{Seed: 31},
		func(rt *core.Runtime) { spec.SetupOS(rt.OS()) })

	replay := func(obs ...core.Observer) (*core.Report, []byte) {
		t.Helper()
		rt, err := core.PrepareReplay(mod, epochs, core.Options{
			DelayOnDivergence: true, Observers: obs,
		})
		if err != nil {
			t.Fatal(err)
		}
		spec.SetupOS(rt.OS())
		rep, err := rt.RunReplay()
		if err != nil {
			t.Fatalf("replay: %v", err)
		}
		m := rt.Mem()
		img, err := m.ReadBytes(mem.HeapBase, int(m.Config().HeapSize))
		if err != nil {
			t.Fatal(err)
		}
		return rep, img
	}

	bareRep, bareImg := replay()
	race, leak, prof := NewRaceDetector(), NewLeakDetector(), NewProfile()
	obsRep, obsImg := replay(race, leak, prof)

	if obsRep.Exit != bareRep.Exit {
		t.Errorf("analyzers perturbed exit: %d vs %d", obsRep.Exit, bareRep.Exit)
	}
	if obsRep.Output != bareRep.Output {
		t.Errorf("analyzers perturbed output")
	}
	for i := range bareImg {
		if bareImg[i] != obsImg[i] {
			t.Fatalf("analyzers perturbed the heap image at offset %#x", i)
		}
	}
	// The analyzers must actually have observed the execution.
	if prof.Syncs.Load() == 0 || prof.Accesses.Load() == 0 || prof.Allocs.Load() == 0 {
		t.Errorf("profile analyzer observed nothing: syncs=%d accesses=%d allocs=%d",
			prof.Syncs.Load(), prof.Accesses.Load(), prof.Allocs.Load())
	}
}

// runInSituWithReplays runs mod in-situ with the analyzers attached and a
// legacy tool hook forcing one re-execution at every epoch boundary, so
// every boundary's commit/stage/restore path is exercised.
func runInSituWithReplays(t *testing.T, mod *tir.Module, eventCap int, analyzers ...core.Observer) int {
	t.Helper()
	replayedAt := map[int64]bool{}
	opts := core.Options{
		Seed:              13,
		EventCap:          eventCap,
		MaxReplays:        64,
		DelayOnDivergence: true,
		Observers:         analyzers,
		OnEpochEnd: func(rt *core.Runtime, info core.EpochEndInfo) core.Decision {
			if !replayedAt[info.Epoch] {
				replayedAt[info.Epoch] = true
				return core.Replay
			}
			return core.Proceed
		},
	}
	rt, err := core.New(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatalf("in-situ run: %v", err)
	}
	if len(replayedAt) == 0 {
		t.Fatal("no in-situ replay ever happened")
	}
	return len(replayedAt)
}

// TestInSituAnalyzersSurviveRollback: analyzers attached to an in-situ
// runtime must survive tool-driven replays — a rollback restores the state
// committed for the current epoch's beginning instead of wiping the whole
// run, so allocation sites from earlier epochs stay blamed and no
// happens-before edges are lost.
func TestInSituAnalyzersSurviveRollback(t *testing.T) {
	// Race-free multi-epoch program: replays at every boundary must not
	// manufacture findings.
	c, ok := workloads.AnalysisByName("norace-locked")
	if !ok {
		t.Fatal("unknown case norace-locked")
	}
	race := NewRaceDetector()
	runInSituWithReplays(t, c.Build(), 48, race)
	for _, f := range race.Findings() {
		t.Errorf("false positive after in-situ rollbacks: %v", f)
	}

	// Leaky program whose leaks happen in the FIRST epoch, padded with lock
	// traffic so later epochs (and their forced rollbacks) follow: the
	// allocation sites recorded before those rollbacks must survive them.
	leakMod := func() *tir.Module {
		mb := tir.NewModuleBuilder()
		gM := mb.Global("mutex", 8)
		leakFn := mb.Func("leak_loop", 0)
		{
			sz, p, i, lim, cond := leakFn.NewReg(), leakFn.NewReg(), leakFn.NewReg(), leakFn.NewReg(), leakFn.NewReg()
			leakFn.ConstI(i, 0)
			leakFn.ConstI(lim, 4)
			loop, done := leakFn.NewLabel(), leakFn.NewLabel()
			leakFn.Bind(loop)
			leakFn.Bin(tir.LtS, cond, i, lim)
			leakFn.Brz(cond, done)
			leakFn.ConstI(sz, 48)
			leakFn.Intrin(p, tir.IntrinMalloc, sz)
			leakFn.Store64(i, p, 0)
			leakFn.AddI(i, i, 1)
			leakFn.Jmp(loop)
			leakFn.Bind(done)
			leakFn.Ret(-1)
			leakFn.Seal()
		}
		m := mb.Func("main", 0)
		m.Call(-1, leakFn.Index())
		ma, i, lim, cond := m.NewReg(), m.NewReg(), m.NewReg(), m.NewReg()
		m.GlobalAddr(ma, gM)
		m.ConstI(i, 0)
		m.ConstI(lim, 60)
		loop, done := m.NewLabel(), m.NewLabel()
		m.Bind(loop)
		m.Bin(tir.LtS, cond, i, lim)
		m.Brz(cond, done)
		m.Intrin(-1, tir.IntrinMutexLock, ma)
		m.Intrin(-1, tir.IntrinMutexUnlock, ma)
		m.AddI(i, i, 1)
		m.Jmp(loop)
		m.Bind(done)
		m.Ret(-1)
		m.Seal()
		mb.SetEntry("main")
		return mb.MustBuild()
	}()

	leak := NewLeakDetector()
	prof := NewProfile()
	boundaries := runInSituWithReplays(t, leakMod, 24, leak, prof)
	if boundaries < 2 {
		t.Fatalf("want a multi-epoch run, got %d boundaries", boundaries)
	}
	findings := leak.Findings()
	if len(findings) != 4 {
		t.Fatalf("want 4 leaks after in-situ rollbacks, got %d: %v", len(findings), findings)
	}
	for _, f := range findings {
		if len(f.Sites) != 1 || f.Sites[0].Func() != "leak_loop" {
			t.Errorf("leak lost its allocation site across a rollback: %v", f)
		}
	}
	// Profile counts must reflect the whole run, not just the epochs after
	// the last rollback: 60 lock/unlock pairs = 120 sync events, plus the
	// replayed final epoch's events are restored-then-recounted, not lost.
	if got := prof.Syncs.Load(); got != 120 {
		t.Errorf("profile counted %d sync events across rollbacks, want 120", got)
	}
	if got := prof.Allocs.Load(); got != 4 {
		t.Errorf("profile counted %d allocs across rollbacks, want 4", got)
	}
}

// TestFromSpec: the analyzer-list syntax of ir-trace analyze.
func TestFromSpec(t *testing.T) {
	az, err := FromSpec("race, leak,profile")
	if err != nil {
		t.Fatal(err)
	}
	if len(az) != 3 {
		t.Fatalf("want 3 analyzers, got %d", len(az))
	}
	if _, err := FromSpec("race,nonsense"); err == nil {
		t.Fatal("unknown analyzer accepted")
	}
	if _, err := FromSpec(""); err == nil {
		t.Fatal("empty analyzer list accepted")
	}
}
