package analysis

import (
	"testing"

	"repro/internal/core"
	"repro/internal/tir"
	"repro/internal/workloads"
)

// runInSitu runs mod in-situ with the analyzers attached. With
// forceReplays, a legacy tool hook forces one re-execution at every epoch
// boundary, so every boundary's capture/restore path is exercised; it
// returns the number of boundaries.
func runInSitu(t *testing.T, mod *tir.Module, eventCap int, forceReplays bool, analyzers ...core.Observer) int {
	t.Helper()
	replayedAt := map[int64]bool{}
	opts := core.Options{
		Seed:              13,
		EventCap:          eventCap,
		MaxReplays:        64,
		DelayOnDivergence: true,
		Observers:         analyzers,
		OnEpochEnd: func(rt *core.Runtime, info core.EpochEndInfo) core.Decision {
			if forceReplays && !replayedAt[info.Epoch] {
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
	if forceReplays && len(replayedAt) == 0 {
		t.Fatal("no in-situ replay ever happened")
	}
	return len(replayedAt)
}

// TestInSituAnalyzersSurviveRollback: analyzers attached to an in-situ
// runtime must survive tool-driven replays — a rollback restores the state
// captured at the current epoch's beginning instead of wiping the whole
// run, so allocation sites from earlier epochs stay blamed, no
// happens-before edges are lost, and a leak found by a boundary scan
// before the replay keeps the epoch that scan gave it.
func TestInSituAnalyzersSurviveRollback(t *testing.T) {
	// Race-free multi-epoch program: replays at every boundary must not
	// manufacture findings.
	c, ok := workloads.AnalysisByName("norace-locked")
	if !ok {
		t.Fatal("unknown case norace-locked")
	}
	race := NewRaceDetector()
	runInSitu(t, c.Build(), 48, true, race)
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
	boundaries := runInSitu(t, leakMod, 24, true, leak, prof)
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
	// A boundary scan runs before the replay decision and is not re-run
	// after the matched replay, so a rollback must keep what it found: each
	// leak's epoch is the one the same run reports with no replays at all.
	plain := NewLeakDetector()
	runInSitu(t, leakMod, 24, false, plain)
	want := map[uint64]int64{}
	for _, l := range plain.Leaks() {
		want[l.Addr] = l.Epoch
	}
	for _, l := range leak.Leaks() {
		if e, ok := want[l.Addr]; !ok || l.Epoch != e {
			t.Errorf("leak at %#x found at epoch %d after rollbacks, %d without (present: %v)", l.Addr, l.Epoch, e, ok)
		}
	}
	if len(want) != 4 {
		t.Fatalf("want 4 leaks without replays, got %d", len(want))
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
