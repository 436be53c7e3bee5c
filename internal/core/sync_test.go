package core

import (
	"strings"
	"testing"

	"repro/internal/mem"
	"repro/internal/tir"
)

// buildProducerConsumer: one producer signals a condition variable after
// setting a flag; consumers wait for it and increment a counter. Main joins
// everyone and returns the counter.
func buildProducerConsumer(nConsumers, rounds int) *tir.Module {
	mb := tir.NewModuleBuilder()
	gM := mb.Global("m", 8)
	gC := mb.Global("c", 8)
	gFlag := mb.Global("flag", 8)
	gCount := mb.Global("count", 8)

	cons := mb.Func("consumer", 1)
	{
		i, lim, cond := cons.NewReg(), cons.NewReg(), cons.NewReg()
		ma, ca, fa, cnta, v, one := cons.NewReg(), cons.NewReg(), cons.NewReg(), cons.NewReg(), cons.NewReg(), cons.NewReg()
		cons.GlobalAddr(ma, gM)
		cons.GlobalAddr(ca, gC)
		cons.GlobalAddr(fa, gFlag)
		cons.GlobalAddr(cnta, gCount)
		cons.ConstI(i, 0)
		cons.ConstI(lim, int64(rounds))
		cons.ConstI(one, 1)
		loop, done := cons.NewLabel(), cons.NewLabel()
		waitLoop := cons.NewLabel()
		cons.Bind(loop)
		cons.Bin(tir.LtS, cond, i, lim)
		cons.Brz(cond, done)
		cons.Intrin(-1, tir.IntrinMutexLock, ma)
		cons.Bind(waitLoop)
		cons.Load64(v, fa, 0)
		gotIt := cons.NewLabel()
		cons.Br(v, gotIt)
		cons.Intrin(-1, tir.IntrinCondWait, ca, ma)
		cons.Jmp(waitLoop)
		cons.Bind(gotIt)
		// consume one token
		cons.Bin(tir.Sub, v, v, one)
		cons.Store64(v, fa, 0)
		cons.Load64(v, cnta, 0)
		cons.Bin(tir.Add, v, v, one)
		cons.Store64(v, cnta, 0)
		cons.Intrin(-1, tir.IntrinMutexUnlock, ma)
		cons.Bin(tir.Add, i, i, one)
		cons.Jmp(loop)
		cons.Bind(done)
		cons.Ret(-1)
		cons.Seal()
	}

	prod := mb.Func("producer", 1)
	{
		total := nConsumers * rounds
		i, lim, cond := prod.NewReg(), prod.NewReg(), prod.NewReg()
		ma, ca, fa, v, one := prod.NewReg(), prod.NewReg(), prod.NewReg(), prod.NewReg(), prod.NewReg()
		prod.GlobalAddr(ma, gM)
		prod.GlobalAddr(ca, gC)
		prod.GlobalAddr(fa, gFlag)
		prod.ConstI(i, 0)
		prod.ConstI(lim, int64(total))
		prod.ConstI(one, 1)
		loop, done := prod.NewLabel(), prod.NewLabel()
		prod.Bind(loop)
		prod.Bin(tir.LtS, cond, i, lim)
		prod.Brz(cond, done)
		prod.Intrin(-1, tir.IntrinMutexLock, ma)
		prod.Load64(v, fa, 0)
		prod.Bin(tir.Add, v, v, one)
		prod.Store64(v, fa, 0)
		prod.Intrin(-1, tir.IntrinCondSignal, ca)
		prod.Intrin(-1, tir.IntrinMutexUnlock, ma)
		prod.Bin(tir.Add, i, i, one)
		prod.Jmp(loop)
		prod.Bind(done)
		// Wake any remaining waiters so nobody is stranded.
		prod.Intrin(-1, tir.IntrinMutexLock, ma)
		prod.Intrin(-1, tir.IntrinCondBroadcast, ca)
		prod.Intrin(-1, tir.IntrinMutexUnlock, ma)
		prod.Ret(-1)
		prod.Seal()
	}

	m := mb.Func("main", 0)
	{
		fnr, argr := m.NewReg(), m.NewReg()
		tids := make([]tir.Reg, 0, nConsumers+1)
		m.ConstI(fnr, int64(cons.Index()))
		for i := 0; i < nConsumers; i++ {
			r := m.NewReg()
			m.ConstI(argr, int64(i))
			m.Intrin(r, tir.IntrinThreadCreate, fnr, argr)
			tids = append(tids, r)
		}
		m.ConstI(fnr, int64(prod.Index()))
		r := m.NewReg()
		m.ConstI(argr, 0)
		m.Intrin(r, tir.IntrinThreadCreate, fnr, argr)
		tids = append(tids, r)
		for _, tr := range tids {
			m.Intrin(-1, tir.IntrinThreadJoin, tr)
		}
		cnta, v := m.NewReg(), m.NewReg()
		m.GlobalAddr(cnta, gCount)
		m.Load64(v, cnta, 0)
		m.Ret(v)
		m.Seal()
	}
	mb.SetEntry("main")
	return mb.MustBuild()
}

func TestCondVarProducerConsumer(t *testing.T) {
	rt, err := New(buildProducerConsumer(3, 50), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exit != 150 {
		t.Fatalf("consumed = %d, want 150", rep.Exit)
	}
}

func TestCondVarIdenticalReplay(t *testing.T) {
	var img1, img2 []byte
	opts := Options{
		MaxReplays:        500,
		DelayOnDivergence: true,
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			if info.Reason == StopProgramEnd && img1 == nil {
				img1 = rt.Mem().HeapImage()
				return Replay
			}
			return Proceed
		},
		OnReplayMatched: func(rt *Runtime, attempts int) Decision {
			img2 = rt.Mem().HeapImage()
			return Proceed
		},
	}
	rt, err := New(buildProducerConsumer(2, 30), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireNoRetry(t, rt, rep.Stats)
	if img1 == nil || img2 == nil {
		t.Fatal("replay did not complete")
	}
	if d := mem.DiffBytes(img1, img2); d != 0 {
		t.Fatalf("condvar replay not identical: %d bytes differ", d)
	}
}

// buildBarrierProgram: workers meet at a barrier repeatedly; exactly one
// serial thread per round increments the counter.
func buildBarrierProgram(nThreads, rounds int) *tir.Module {
	mb := tir.NewModuleBuilder()
	gBar := mb.Global("bar", 8)
	gCount := mb.Global("count", 8)
	gM := mb.Global("m", 8)

	w := mb.Func("worker", 1)
	{
		i, lim, cond, ba, cnta, ma, v, one, ser := w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg()
		w.GlobalAddr(ba, gBar)
		w.GlobalAddr(cnta, gCount)
		w.GlobalAddr(ma, gM)
		w.ConstI(i, 0)
		w.ConstI(lim, int64(rounds))
		w.ConstI(one, 1)
		loop, done := w.NewLabel(), w.NewLabel()
		skip := w.NewLabel()
		w.Bind(loop)
		w.Bin(tir.LtS, cond, i, lim)
		w.Brz(cond, done)
		w.Intrin(ser, tir.IntrinBarrierWait, ba)
		w.Brz(ser, skip)
		w.Intrin(-1, tir.IntrinMutexLock, ma)
		w.Load64(v, cnta, 0)
		w.Bin(tir.Add, v, v, one)
		w.Store64(v, cnta, 0)
		w.Intrin(-1, tir.IntrinMutexUnlock, ma)
		w.Bind(skip)
		w.Bin(tir.Add, i, i, one)
		w.Jmp(loop)
		w.Bind(done)
		w.Ret(-1)
		w.Seal()
	}

	m := mb.Func("main", 0)
	{
		ba, n := m.NewReg(), m.NewReg()
		m.GlobalAddr(ba, gBar)
		m.ConstI(n, int64(nThreads))
		m.Intrin(-1, tir.IntrinBarrierInit, ba, n)
		fnr, argr := m.NewReg(), m.NewReg()
		m.ConstI(fnr, int64(w.Index()))
		tids := make([]tir.Reg, nThreads)
		for i := 0; i < nThreads; i++ {
			tids[i] = m.NewReg()
			m.ConstI(argr, int64(i))
			m.Intrin(tids[i], tir.IntrinThreadCreate, fnr, argr)
		}
		for i := 0; i < nThreads; i++ {
			m.Intrin(-1, tir.IntrinThreadJoin, tids[i])
		}
		cnta, v := m.NewReg(), m.NewReg()
		m.GlobalAddr(cnta, gCount)
		m.Load64(v, cnta, 0)
		m.Ret(v)
		m.Seal()
	}
	mb.SetEntry("main")
	return mb.MustBuild()
}

func TestBarrierSerialThreadPerRound(t *testing.T) {
	rt, err := New(buildBarrierProgram(4, 25), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exit != 25 {
		t.Fatalf("serial increments = %d, want 25", rep.Exit)
	}
}

func TestBarrierIdenticalReplay(t *testing.T) {
	var img1, img2 []byte
	opts := Options{
		MaxReplays:        500,
		DelayOnDivergence: true,
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			if info.Reason == StopProgramEnd && img1 == nil {
				img1 = rt.Mem().HeapImage()
				return Replay
			}
			return Proceed
		},
		OnReplayMatched: func(rt *Runtime, attempts int) Decision {
			img2 = rt.Mem().HeapImage()
			return Proceed
		},
	}
	rt, err := New(buildBarrierProgram(3, 20), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	requireNoRetry(t, rt, rep.Stats)
	if d := mem.DiffBytes(img1, img2); d != 0 {
		t.Fatalf("barrier replay not identical: %d bytes differ", d)
	}
}

// buildTryLockProgram: workers trylock a shared mutex; on failure they
// increment a private tally. The recorded try results must replay exactly.
func buildTryLockProgram(nThreads, iters int) *tir.Module {
	mb := tir.NewModuleBuilder()
	gM := mb.Global("m", 8)
	gOk := mb.Global("ok", 8)
	gM2 := mb.Global("m2", 8)

	w := mb.Func("worker", 1)
	{
		i, lim, cond, ma, m2a, oka, got, v, one := w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg()
		w.GlobalAddr(ma, gM)
		w.GlobalAddr(m2a, gM2)
		w.GlobalAddr(oka, gOk)
		w.ConstI(i, 0)
		w.ConstI(lim, int64(iters))
		w.ConstI(one, 1)
		loop, done, miss := w.NewLabel(), w.NewLabel(), w.NewLabel()
		w.Bind(loop)
		w.Bin(tir.LtS, cond, i, lim)
		w.Brz(cond, done)
		w.Intrin(got, tir.IntrinMutexTryLock, ma)
		w.Brz(got, miss)
		// Got the lock: tally under a second mutex, then release.
		w.Intrin(-1, tir.IntrinMutexLock, m2a)
		w.Load64(v, oka, 0)
		w.Bin(tir.Add, v, v, one)
		w.Store64(v, oka, 0)
		w.Intrin(-1, tir.IntrinMutexUnlock, m2a)
		w.Intrin(-1, tir.IntrinMutexUnlock, ma)
		w.Bind(miss)
		w.Bin(tir.Add, i, i, one)
		w.Jmp(loop)
		w.Bind(done)
		w.Ret(-1)
		w.Seal()
	}

	m := mb.Func("main", 0)
	{
		fnr, argr := m.NewReg(), m.NewReg()
		m.ConstI(fnr, int64(w.Index()))
		tids := make([]tir.Reg, nThreads)
		for i := 0; i < nThreads; i++ {
			tids[i] = m.NewReg()
			m.ConstI(argr, int64(i))
			m.Intrin(tids[i], tir.IntrinThreadCreate, fnr, argr)
		}
		for i := 0; i < nThreads; i++ {
			m.Intrin(-1, tir.IntrinThreadJoin, tids[i])
		}
		oka, v := m.NewReg(), m.NewReg()
		m.GlobalAddr(oka, gOk)
		m.Load64(v, oka, 0)
		m.Ret(v)
		m.Seal()
	}
	mb.SetEntry("main")
	return mb.MustBuild()
}

func TestTryLockRecordsResults(t *testing.T) {
	rt, err := New(buildTryLockProgram(4, 200), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exit == 0 || rep.Exit > 800 {
		t.Fatalf("successful tries = %d, want in (0, 800]", rep.Exit)
	}
}

func TestTryLockIdenticalReplay(t *testing.T) {
	var img1, img2 []byte
	var exitOrig uint64
	opts := Options{
		MaxReplays:        1000,
		DelayOnDivergence: true,
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			if info.Reason == StopProgramEnd && img1 == nil {
				img1 = rt.Mem().HeapImage()
				return Replay
			}
			return Proceed
		},
		OnReplayMatched: func(rt *Runtime, attempts int) Decision {
			img2 = rt.Mem().HeapImage()
			return Proceed
		},
	}
	rt, err := New(buildTryLockProgram(3, 100), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	exitOrig = rep.Exit
	requireNoRetry(t, rt, rep.Stats)
	if img1 == nil || img2 == nil {
		t.Fatal("replay did not complete")
	}
	if d := mem.DiffBytes(img1, img2); d != 0 {
		t.Fatalf("trylock replay not identical: %d bytes differ (exit %d, attempts %d, div %q)",
			d, exitOrig, rep.Stats.LastReplayAttempts, rt.DivergenceInfo())
	}
}

func TestPrintOutputNotDuplicatedByReplay(t *testing.T) {
	mb := tir.NewModuleBuilder()
	fb := mb.Func("main", 0)
	r := fb.NewReg()
	fb.ConstI(r, 7)
	fb.Intrin(-1, tir.IntrinPrint, r)
	fb.Ret(r)
	fb.Seal()
	mb.SetEntry("main")
	replayed := false
	opts := Options{
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			if !replayed {
				replayed = true
				return Replay
			}
			return Proceed
		},
	}
	rt, err := New(mb.MustBuild(), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(rep.Output, "7"); got != 1 {
		t.Fatalf("output printed %d times, want once:\n%s", got, rep.Output)
	}
}
