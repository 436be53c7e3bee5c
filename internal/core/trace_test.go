package core

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/record"
	"repro/internal/tir"
	"repro/internal/workloads"
)

// recordWithSink runs spec under full recording with a collecting trace sink
// and returns the epoch logs, the report, and the final heap image.
func recordWithSink(t *testing.T, spec workloads.Spec, opts Options) ([]*record.EpochLog, *Report, []byte) {
	t.Helper()
	mod, err := spec.Build()
	if err != nil {
		t.Fatalf("build %s: %v", spec.Name, err)
	}
	var epochs []*record.EpochLog
	opts.TraceSink = func(ep *record.EpochLog) error {
		epochs = append(epochs, ep)
		return nil
	}
	rt, err := New(mod, opts)
	if err != nil {
		t.Fatalf("new %s: %v", spec.Name, err)
	}
	spec.SetupOS(rt.OS())
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("record %s: %v", spec.Name, err)
	}
	return epochs, rep, rt.Mem().HeapImage()
}

// replayRecorded re-executes the captured epochs offline and returns the
// replayed report and final heap image.
func replayRecorded(t *testing.T, spec workloads.Spec, epochs []*record.EpochLog, opts Options) (*Report, []byte) {
	t.Helper()
	mod, err := spec.Build()
	if err != nil {
		t.Fatalf("rebuild %s: %v", spec.Name, err)
	}
	rt, err := PrepareReplay(mod, epochs, opts)
	if err != nil {
		t.Fatalf("prepare replay %s: %v", spec.Name, err)
	}
	spec.SetupOS(rt.OS())
	rep, err := rt.RunReplay()
	if err != nil {
		t.Fatalf("offline replay %s: %v", spec.Name, err)
	}
	return rep, rt.Mem().HeapImage()
}

func scaled(t *testing.T, name string, scale float64) workloads.Spec {
	t.Helper()
	s, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	s.Iters = int(float64(s.Iters) * scale)
	if s.Iters < 3 {
		s.Iters = 3
	}
	return s
}

// TestOfflineReplayIdentity is the round-trip identity property over real
// workload profiles: record with a trace sink, re-execute the captured
// epochs offline, and require the exit value, program output, and final heap
// image to be byte-identical. bodytrack is the racy case (§5.2.1): its
// condition-variable timing can diverge, so the offline replayer gets the
// same randomized-delay search the in-situ replayer uses.
func TestOfflineReplayIdentity(t *testing.T) {
	cases := []struct {
		app   string
		scale float64
		opts  Options
	}{
		// Barriers plus allocation churn.
		{app: "streamcluster", scale: 0.2},
		// File IO (revocable reads re-issued offline through OpenAt).
		{app: "pfscan", scale: 0.2},
		// Socket IO (recordable payloads delivered from the log).
		{app: "memcached", scale: 0.2},
		// The racy condition-variable profile.
		{app: "bodytrack", scale: 0.2,
			opts: Options{MaxReplays: 200, DelayOnDivergence: true}},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.app, func(t *testing.T) {
			t.Parallel()
			spec := scaled(t, tc.app, tc.scale)
			opts := tc.opts
			opts.Seed = 7
			epochs, rep1, img1 := recordWithSink(t, spec, opts)
			if len(epochs) == 0 {
				t.Fatal("trace sink saw no epochs")
			}
			rep2, img2 := replayRecorded(t, spec, epochs, opts)
			if rep2.Exit != rep1.Exit {
				t.Fatalf("exit diverged: recorded %d, replayed %d", rep1.Exit, rep2.Exit)
			}
			if rep2.Output != rep1.Output {
				t.Fatalf("output diverged:\nrecorded %q\nreplayed %q", rep1.Output, rep2.Output)
			}
			if d := mem.DiffBytes(img1, img2); d != 0 {
				t.Fatalf("final heap image differs in %d bytes", d)
			}
		})
	}
}

// TestOfflineReplayMultiEpoch forces several epochs via a small event list
// and checks that the flattened multi-epoch replay still reproduces the run:
// per-variable positions must rebase correctly across epoch boundaries.
func TestOfflineReplayMultiEpoch(t *testing.T) {
	spec := scaled(t, "pfscan", 0.3)
	opts := Options{EventCap: 48, Seed: 11}
	epochs, rep1, img1 := recordWithSink(t, spec, opts)
	if len(epochs) < 2 {
		t.Fatalf("expected a multi-epoch trace, got %d epoch(s)", len(epochs))
	}
	rep2, img2 := replayRecorded(t, spec, epochs, opts)
	if rep2.Exit != rep1.Exit {
		t.Fatalf("exit diverged: recorded %d, replayed %d", rep1.Exit, rep2.Exit)
	}
	if d := mem.DiffBytes(img1, img2); d != 0 {
		t.Fatalf("final heap image differs in %d bytes", d)
	}
}

// TestPrepareReplayRejectsSparseTIDs: replay from program start pre-creates
// every recorded thread in slot order, so epochs whose thread IDs have a gap
// — legal in a mid-trace segment, where reclaimed threads leave holes (see
// record.Flat) — are refused.
func TestPrepareReplayRejectsSparseTIDs(t *testing.T) {
	mod := buildCounter(2, 5)
	exit := []record.Event{{Kind: record.KExit, Pos: -1}}
	for name, threads := range map[string][]record.ThreadLog{
		"gap":        {{TID: 0, Events: exit}, {TID: 2, Events: exit}},
		"high start": {{TID: 3, Events: exit}, {TID: 7, Events: exit}},
	} {
		_, err := PrepareReplay(mod, []*record.EpochLog{{Epoch: 1, Threads: threads}}, Options{})
		if err == nil || !strings.Contains(err.Error(), "non-dense thread IDs") {
			t.Errorf("%s: want a non-dense thread ID error, got %v", name, err)
		}
	}
}

// TestTraceSinkErrorAbortsRun: a failing sink must terminate the program and
// surface from Run.
func TestTraceSinkErrorAbortsRun(t *testing.T) {
	mod := buildCounter(2, 5)
	rt, err := New(mod, Options{TraceSink: func(*record.EpochLog) error {
		return errSinkBoom
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err == nil {
		t.Fatal("expected sink error to surface from Run")
	}
}

var errSinkBoom = &sinkErr{}

type sinkErr struct{}

func (*sinkErr) Error() string { return "sink boom" }

// TestOfflineReplayReproducesFault: a trace whose final epoch closed on a
// fault must reproduce the same trap offline.
func TestOfflineReplayReproducesFault(t *testing.T) {
	// A program whose only thread dereferences an unmapped address after a
	// few recorded lock events.
	build := func() *tir.Module {
		mb := tir.NewModuleBuilder()
		gMutex := mb.Global("mutex", 8)
		m := mb.Func("main", 0)
		ma, v, bad := m.NewReg(), m.NewReg(), m.NewReg()
		m.GlobalAddr(ma, gMutex)
		for i := 0; i < 3; i++ {
			m.Intrin(-1, tir.IntrinMutexLock, ma)
			m.Intrin(-1, tir.IntrinMutexUnlock, ma)
		}
		m.ConstI(bad, 0x40)
		m.Load64(v, bad, 0)
		m.Ret(v)
		m.Seal()
		mb.SetEntry("main")
		mod, err := mb.Build()
		if err != nil {
			t.Fatal(err)
		}
		return mod
	}
	mod := build()

	var epochs []*record.EpochLog
	rt, err := New(mod, Options{TraceSink: func(ep *record.EpochLog) error {
		epochs = append(epochs, ep)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err == nil {
		t.Fatal("expected the recording run to fault")
	}
	if len(epochs) == 0 {
		t.Fatal("fault epoch was not flushed to the sink")
	}
	if StopReason(epochs[len(epochs)-1].Reason) != StopFault {
		t.Fatalf("final epoch reason = %v, want fault",
			StopReason(epochs[len(epochs)-1].Reason))
	}

	_, err = ReplayFromTrace(build(), epochs, Options{MaxReplays: 10}, nil)
	if err == nil {
		t.Fatal("offline replay did not reproduce the fault")
	}
}
