package core

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/tir"
	"repro/internal/vsys"
)

// buildCounter returns a program where nThreads workers each perform iters
// recorded lock/increment/unlock rounds on a shared counter, and main
// returns the final counter value.
func buildCounter(nThreads, iters int) *tir.Module {
	mb := tir.NewModuleBuilder()
	gMutex := mb.Global("mutex", 8)
	gCounter := mb.Global("counter", 8)

	w := mb.Func("worker", 1)
	{
		i, lim, cond, maddr, caddr, v, one := w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg()
		w.ConstI(i, 0)
		w.ConstI(lim, int64(iters))
		w.ConstI(one, 1)
		w.GlobalAddr(maddr, gMutex)
		w.GlobalAddr(caddr, gCounter)
		loop, done := w.NewLabel(), w.NewLabel()
		w.Bind(loop)
		w.Bin(tir.LtS, cond, i, lim)
		w.Brz(cond, done)
		w.Intrin(-1, tir.IntrinMutexLock, maddr)
		w.Load64(v, caddr, 0)
		w.Bin(tir.Add, v, v, one)
		w.Store64(v, caddr, 0)
		w.Intrin(-1, tir.IntrinMutexUnlock, maddr)
		w.Bin(tir.Add, i, i, one)
		w.Jmp(loop)
		w.Bind(done)
		w.Ret(-1)
		w.Seal()
	}

	m := mb.Func("main", 0)
	{
		tid := make([]tir.Reg, nThreads)
		fnr, argr := m.NewReg(), m.NewReg()
		m.ConstI(fnr, int64(w.Index()))
		for i := 0; i < nThreads; i++ {
			tid[i] = m.NewReg()
			m.ConstI(argr, int64(i))
			m.Intrin(tid[i], tir.IntrinThreadCreate, fnr, argr)
		}
		for i := 0; i < nThreads; i++ {
			m.Intrin(-1, tir.IntrinThreadJoin, tid[i])
		}
		caddr, v := m.NewReg(), m.NewReg()
		m.GlobalAddr(caddr, gCounter)
		m.Load64(v, caddr, 0)
		m.Ret(v)
		m.Seal()
	}
	mb.SetEntry("main")
	return mb.MustBuild()
}

func TestSingleThreadProgram(t *testing.T) {
	mb := tir.NewModuleBuilder()
	fb := mb.Func("main", 0)
	a := fb.NewReg()
	fb.ConstI(a, 21)
	fb.AddI(a, a, 21)
	fb.Ret(a)
	fb.Seal()
	mb.SetEntry("main")
	rt, err := New(mb.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exit != 42 {
		t.Fatalf("exit = %d", rep.Exit)
	}
}

func TestMultithreadedCounter(t *testing.T) {
	rt, err := New(buildCounter(4, 500), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exit != 2000 {
		t.Fatalf("counter = %d, want 2000", rep.Exit)
	}
}

func TestPlainModeMatchesRecorded(t *testing.T) {
	for _, plain := range []bool{false, true} {
		rt, err := New(buildCounter(3, 200), Options{DisableRecording: plain})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := rt.Run()
		if err != nil {
			t.Fatalf("plain=%v: %v", plain, err)
		}
		if rep.Exit != 600 {
			t.Fatalf("plain=%v: counter = %d", plain, rep.Exit)
		}
	}
}

// TestReleaseRequiresShutdown: a runtime's address space can be given back
// only once no vthread can touch it again. Release before Run panics; after
// Run it recycles, faults every later access, and a second call is a no-op.
func TestReleaseRequiresShutdown(t *testing.T) {
	rt, err := New(buildCounter(2, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("Release before shutdown did not panic")
			}
		}()
		rt.Release()
	}()
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exit != 100 {
		t.Fatalf("counter = %d, want 100", rep.Exit)
	}
	rt.Release()
	rt.Release()
	if _, err := rt.Mem().Load64(mem.GlobalBase); err == nil {
		t.Fatal("a released runtime's memory still reads")
	}

	// A runtime abandoned before it ever ran: Shutdown makes it releasable.
	rt, err = New(buildCounter(1, 1), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rt.Shutdown()
	rt.Release()
}

// TestIdenticalReplay is the core §5.2 validation: trigger a replay of the
// final epoch and require the heap image after replay to be byte-identical
// to the image after the original execution.
func TestIdenticalReplay(t *testing.T) {
	var imgOrig, imgReplay []byte
	opts := Options{
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			if info.Reason == StopProgramEnd && imgOrig == nil {
				imgOrig = rt.Mem().HeapImage()
				return Replay
			}
			return Proceed
		},
		OnReplayMatched: func(rt *Runtime, attempts int) Decision {
			imgReplay = rt.Mem().HeapImage()
			return Proceed
		},
	}
	rt, err := New(buildCounter(4, 300), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exit != 1200 {
		t.Fatalf("counter = %d", rep.Exit)
	}
	if imgOrig == nil || imgReplay == nil {
		t.Fatal("replay did not run")
	}
	if d := mem.DiffBytes(imgOrig, imgReplay); d != 0 {
		t.Fatalf("heap images differ in %d bytes (%.3f%%)", d, mem.DiffPercent(imgOrig, imgReplay))
	}
	if rep.Stats.MatchedReplays < 1 {
		t.Fatalf("stats = %+v", rep.Stats)
	}
	requireNoRetry(t, rt, rep.Stats)
}

// buildAllocProgram makes workers allocate/free with recorded syscalls so
// replay exercises the allocator and the recordable syscall path.
func buildAllocProgram(nThreads, iters int) *tir.Module {
	mb := tir.NewModuleBuilder()
	gOut := mb.Global("out", 8*64)

	w := mb.Func("worker", 1)
	{
		i, lim, cond, one := w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg()
		sz, p, tod, outa, idx := w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg()
		w.ConstI(i, 0)
		w.ConstI(lim, int64(iters))
		w.ConstI(one, 1)
		loop, done := w.NewLabel(), w.NewLabel()
		w.Bind(loop)
		w.Bin(tir.LtS, cond, i, lim)
		w.Brz(cond, done)
		// malloc a size depending on i, store gettimeofday into it, free it.
		seven := w.NewReg()
		w.ConstI(seven, 7)
		w.Bin(tir.And, sz, i, seven)
		w.Emit(tir.Instr{Op: tir.MulI, A: sz, B: sz, Imm: 24})
		w.AddI(sz, sz, 16)
		w.Intrin(p, tir.IntrinMalloc, sz)
		w.Syscall(tod, vsys.SysGettimeofday)
		w.Store64(tod, p, 0)
		// also store the time into the per-thread out slot so the heap image
		// reflects recorded syscall results
		w.GlobalAddr(outa, 0)
		w.Emit(tir.Instr{Op: tir.MulI, A: idx, B: w.Param(0), Imm: 8})
		w.Bin(tir.Add, outa, outa, idx)
		w.Store64(tod, outa, 0)
		w.Intrin(-1, tir.IntrinFree, p)
		w.Bin(tir.Add, i, i, one)
		w.Jmp(loop)
		w.Bind(done)
		w.Ret(-1)
		w.Seal()
	}
	_ = gOut

	m := mb.Func("main", 0)
	{
		tids := make([]tir.Reg, nThreads)
		fnr, argr := m.NewReg(), m.NewReg()
		m.ConstI(fnr, int64(w.Index()))
		for i := 0; i < nThreads; i++ {
			tids[i] = m.NewReg()
			m.ConstI(argr, int64(i))
			m.Intrin(tids[i], tir.IntrinThreadCreate, fnr, argr)
		}
		for i := 0; i < nThreads; i++ {
			m.Intrin(-1, tir.IntrinThreadJoin, tids[i])
		}
		z := m.NewReg()
		m.ConstI(z, 0)
		m.Ret(z)
		m.Seal()
	}
	mb.SetEntry("main")
	return mb.MustBuild()
}

func TestReplayReproducesSyscallsAndAllocations(t *testing.T) {
	var imgOrig, imgReplay []byte
	opts := Options{
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			if info.Reason == StopProgramEnd && imgOrig == nil {
				imgOrig = rt.Mem().HeapImage()
				return Replay
			}
			return Proceed
		},
		OnReplayMatched: func(rt *Runtime, attempts int) Decision {
			imgReplay = rt.Mem().HeapImage()
			return Proceed
		},
	}
	rt, err := New(buildAllocProgram(3, 100), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if imgOrig == nil || imgReplay == nil {
		t.Fatal("replay did not run")
	}
	if d := mem.DiffBytes(imgOrig, imgReplay); d != 0 {
		t.Fatalf("heap images differ in %d bytes: recordable syscalls or allocations not replayed identically", d)
	}
}

// TestEpochsCloseOnLogExhaustion checks the §3.2 log-size epoch criterion.
func TestEpochsCloseOnLogExhaustion(t *testing.T) {
	rt, err := New(buildCounter(2, 400), Options{EventCap: 64, VarCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exit != 800 {
		t.Fatalf("counter = %d", rep.Exit)
	}
	if rep.Stats.Epochs < 3 {
		t.Fatalf("epochs = %d, want several from log exhaustion", rep.Stats.Epochs)
	}
}

// TestReplayOfMiddleEpoch forces an epoch boundary via log exhaustion and
// replays a non-final epoch.
func TestReplayOfMiddleEpoch(t *testing.T) {
	replaysDone := 0
	opts := Options{
		EventCap: 128,
		VarCap:   1024,
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			if info.Reason == StopLogFull && replaysDone == 0 {
				replaysDone++
				return Replay
			}
			return Proceed
		},
	}
	rt, err := New(buildCounter(3, 300), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exit != 900 {
		t.Fatalf("counter = %d after mid-execution replay", rep.Exit)
	}
	if rep.Stats.MatchedReplays < 1 {
		t.Fatalf("no matched replay: %+v", rep.Stats)
	}
	requireNoRetry(t, rt, rep.Stats)
}
