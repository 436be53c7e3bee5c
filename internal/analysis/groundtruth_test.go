package analysis_test

// The analyzers against recorded traces: ground truth driven through the
// trace executor — the one replay path ir-trace analyze and the daemon use
// — and composition identity. These tests live in an external test package
// because internal/trace imports internal/analysis.

import (
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/hostrace"
	"repro/internal/mem"
	"repro/internal/record"
	"repro/internal/tir"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// recordHandle runs mod under full recording and wraps the flushed epochs
// and the run's outcome in a trace handle, returning it with the recording
// report.
func recordHandle(t testing.TB, mod *tir.Module, opts core.Options,
	setup func(*core.Runtime)) (*trace.Handle, *core.Report) {
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
	return trace.OpenTrace(&trace.Trace{
		Header:  trace.Header{ModuleHash: tir.Fingerprint(mod), Seed: opts.Seed},
		Epochs:  epochs,
		Summary: &trace.Summary{Exit: rep.Exit, Output: rep.Output},
	}), rep
}

// analyze re-executes the trace behind h once through trace.AnalyzeBatch
// with the analyzers named by spec attached, failing the test unless the
// replay matched.
func analyze(t *testing.T, mod *tir.Module, h *trace.Handle, opts core.Options,
	setup func(*core.Runtime) error, spec string) trace.AnalyzeResult {
	t.Helper()
	res, _ := trace.AnalyzeBatch([]trace.AnalyzeJob{{
		Job: trace.Job{Name: "analyze", Module: mod, Handle: h, Opts: opts, Setup: setup},
		NewAnalyzers: func() []analysis.Analyzer {
			az, err := analysis.FromSpec(spec)
			if err != nil {
				t.Error(err)
			}
			return az
		},
	}}, 1)
	if !res[0].Matched || res[0].Err != nil {
		t.Fatalf("analysis replay: %v", res[0].Err)
	}
	return res[0]
}

// pairKey returns the unordered innermost-function pair of a race finding.
func pairKey(f analysis.Finding) [2]string {
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
			h, recRep := recordHandle(t, mod, core.Options{Seed: 11}, nil)

			res := analyze(t, mod, h, core.Options{}, nil, "race")
			rep, findings := res.Report, res.Findings
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
			h, _ := recordHandle(t, mod, core.Options{Seed: 5}, nil)

			findings := analyze(t, mod, h, core.Options{}, nil, "leak").Findings
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
			h, _ := recordHandle(t, mod, core.Options{Seed: 23},
				func(rt *core.Runtime) { spec.SetupOS(rt.OS()) })

			findings := analyze(t, mod, h, core.Options{DelayOnDivergence: true},
				func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil }, "race").Findings
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
	h, _ := recordHandle(t, mod, core.Options{Seed: 31},
		func(rt *core.Runtime) { spec.SetupOS(rt.OS()) })
	epochs, err := h.Epochs(h.EpochRange())
	if err != nil {
		t.Fatal(err)
	}
	f := record.NewFlattener()
	for _, ep := range epochs {
		f.Add(ep)
	}
	fl, err := f.Flat()
	if err != nil {
		t.Fatal(err)
	}

	// The heap image is read off the completed runtime, which the executor
	// does not hand out; this is core's program-start replay driven directly.
	replay := func(obs ...core.Observer) (*core.Report, []byte) {
		t.Helper()
		rt, err := core.PrepareReplayFlatAt(mod, nil, fl, nil, core.Options{
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
	race, leak, prof := analysis.NewRaceDetector(), analysis.NewLeakDetector(), analysis.NewProfile()
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
