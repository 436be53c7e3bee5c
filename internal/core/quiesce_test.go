package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/record"
	"repro/internal/tir"
)

// bareRuntime builds the part of a Runtime the park/wake primitive touches:
// n threads in tsRunning (counted), no CPUs, no goroutines.
func bareRuntime(n int) (*Runtime, []*Thread) {
	rt := &Runtime{quiet: make(chan struct{}, 1)}
	for i := 0; i < n; i++ {
		t := &Thread{id: int32(i), rt: rt, wakeCh: make(chan struct{}, 1)}
		rt.threads = append(rt.threads, t)
		t.setState(tsRunning)
	}
	return rt, rt.threads
}

// runningByScan counts the threads whose state is tsRunning — what
// Runtime.running claims to be.
func runningByScan(rt *Runtime) int64 {
	var n int64
	for _, t := range rt.threads {
		if t.state.Load() == tsRunning {
			n++
		}
	}
	return n
}

// requireNoRetry asserts that every re-execution of a race-free program
// matched: a retry there can only be a stall verdict on a healthy replay.
func requireNoRetry(t *testing.T, rt *Runtime, st Stats) {
	t.Helper()
	if st.Replays != st.MatchedReplays || st.Divergences != 0 {
		t.Fatalf("spurious retry on a race-free program: %d replays, %d matched, %d divergences (%s)",
			st.Replays, st.MatchedReplays, st.Divergences, rt.DivergenceInfo())
	}
}

func TestSetStateCountsTransitions(t *testing.T) {
	rt, ts := bareRuntime(2)
	steps := []struct {
		t     *Thread
		state int32
		want  int64
	}{
		{ts[0], tsRunning, 2}, // repeated mark: the trampoline after a pre-marked start
		{ts[0], tsStopped, 1},
		{ts[0], tsBlocked, 1}, // non-running to non-running
		{ts[0], tsRunning, 2},
		{ts[1], tsExited, 1},
		{ts[1], tsDead, 1},
		{ts[1], tsEmbryo, 1},
		{ts[1], tsRunning, 2},
	}
	for i, s := range steps {
		s.t.setState(s.state)
		if got := rt.running.Load(); got != s.want || got != runningByScan(rt) {
			t.Fatalf("step %d: running = %d, scan = %d, want %d", i, got, runningByScan(rt), s.want)
		}
	}
	if len(rt.quiet) != 0 {
		t.Fatal("the count never reached zero, yet something was posted")
	}
}

func TestWakeBeforeParkLeavesToken(t *testing.T) {
	rt, ts := bareRuntime(1)
	rt.wake(ts[0])
	if !ts[0].token || rt.running.Load() != 1 {
		t.Fatalf("wake of an unparked thread: token=%v running=%d", ts[0].token, rt.running.Load())
	}
	ts[0].park(tsBlocked, waitInfo{}) // must return at once; a sleep here hangs the test
	if ts[0].token || ts[0].state.Load() != tsRunning || rt.running.Load() != 1 {
		t.Fatalf("park over a token: token=%v state=%s running=%d",
			ts[0].token, stateName(ts[0].state.Load()), rt.running.Load())
	}
	if len(rt.quiet) != 0 || ts[0].parks.Load() != 0 {
		t.Fatalf("the count touched zero or a sleep was counted: posts=%d parks=%d", len(rt.quiet), ts[0].parks.Load())
	}
}

func TestTwoWakersCountOnce(t *testing.T) {
	rt, ts := bareRuntime(1)
	var cond, phase waitList // the sleeper is named twice, as condConsume's is
	cond.add(ts[0])
	cond.add(ts[0])
	phase.add(ts[0])
	if len(cond) != 1 {
		t.Fatalf("a thread enlisted twice on one list: %d entries", len(cond))
	}
	woke := make(chan struct{})
	go func() {
		ts[0].park(tsBlocked, waitInfo{})
		close(woke)
	}()
	<-rt.quiet // the sleeper took the count to zero: it is parked
	cond.wakeAll(rt)
	phase.wakeAll(rt)
	if got := rt.running.Load(); got != 1 {
		t.Fatalf("two wakers, one sleeper: running = %d, want 1", got)
	}
	<-woke
	if !ts[0].token {
		t.Fatal("the losing waker left no token")
	}
	ts[0].park(tsBlocked, waitInfo{}) // consumes it
	if got := ts[0].parks.Load(); got != 1 {
		t.Fatalf("parks = %d, want the one real sleep", got)
	}
}

func TestZeroCrossingWithNobodyWaiting(t *testing.T) {
	rt, ts := bareRuntime(1)
	th := ts[0]
	parkReq, woke := make(chan struct{}), make(chan struct{})
	go func() {
		for range parkReq {
			th.park(tsStopped, waitInfo{})
			woke <- struct{}{}
		}
	}()
	isParked := func() bool { return th.state.Load() == tsStopped }
	parkAndWait := func() { // waits on the primitive's own state, not the clock
		parkReq <- struct{}{}
		for !isParked() {
			runtime.Gosched()
		}
	}
	parkAndWait() // first crossing: posted
	rt.wake(th)
	<-woke
	parkAndWait() // second crossing: the slot is still full, the post is dropped
	if len(rt.quiet) != 1 {
		t.Fatalf("two unobserved zero crossings left %d posts, want one stale token", len(rt.quiet))
	}
	rt.wake(th)
	<-woke

	// The world is moving again (count 1) and a stale token sits in the slot:
	// a coordinator arriving now consumes it, re-checks and keeps waiting until
	// the thread really parks.
	done := make(chan error, 1)
	go func() { done <- rt.awaitQuiescence() }()
	parkReq <- struct{}{}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !isParked() || rt.running.Load() != 0 {
		t.Fatalf("coordinator returned with parked=%v running=%d", isParked(), rt.running.Load())
	}
	rt.wake(th)
	<-woke
	close(parkReq)
}

func TestQuiescenceAccountingError(t *testing.T) {
	rt, ts := bareRuntime(2)
	ts[0].setState(tsStopped)
	ts[1].setState(tsStopped)
	ts[1].state.Store(tsRunning) // a store that bypassed the one function
	err := rt.awaitQuiescence()
	if err == nil || !strings.Contains(err.Error(), "core: quiescence accounting") ||
		!strings.Contains(err.Error(), "thread 1 is running") {
		t.Fatalf("err = %v, want an accounting error naming thread 1 and its state", err)
	}
	ts[1].state.Store(tsBlocked)
	if err := rt.awaitQuiescence(); err != nil {
		t.Fatal(err)
	}
	if err := rt.awaitUnwound(); err == nil || !strings.Contains(err.Error(), "thread 0 is stopped") {
		t.Fatalf("err = %v, want thread 0 reported still parked after a rollback", err)
	}
}

// TestParkWakeHammer: threads park and wake each other at random; whenever
// the count crosses zero nothing is runnable, so the coordinator can compare
// the count with a scan of the states before it sets the world moving again.
func TestParkWakeHammer(t *testing.T) {
	const n, steps = 8, 100_000
	rt, ts := bareRuntime(n)
	var mu sync.Mutex // guards shared, as syncVar.mu guards its lists
	var shared waitList
	var left atomic.Int64
	left.Store(steps)
	var live atomic.Int64
	live.Store(n)
	for _, th := range ts {
		go func(th *Thread) {
			rng := rand.New(rand.NewSource(int64(th.id) + 1))
			for left.Add(-1) >= 0 {
				switch rng.Intn(4) {
				case 0:
					rt.wake(ts[rng.Intn(n)])
				case 1:
					mu.Lock()
					shared.wakeAll(rt)
					mu.Unlock()
				case 2:
					mu.Lock()
					shared.add(th)
					mu.Unlock()
					th.park(tsBlocked, waitInfo{})
				case 3:
					th.park(tsStopped, waitInfo{})
				}
			}
			live.Add(-1)
			th.setState(tsDead)
		}(th)
	}
	crossings := 0
	for live.Load() > 0 {
		<-rt.quiet
		if rt.running.Load() != 0 {
			continue // stale: somebody was woken before the post was read
		}
		crossings++
		if scan := runningByScan(rt); scan != 0 {
			t.Fatalf("crossing %d: running = 0 but %d threads are in tsRunning", crossings, scan)
		}
		// Nothing moves until the coordinator wakes a sleeper: one at a time
		// mostly, everybody now and then as a phase change does.
		if crossings%3 == 0 {
			rt.wakeAll()
			continue
		}
		for i := 0; i < n; i++ {
			if th := ts[(crossings+i)%n]; th.state.Load() != tsDead {
				rt.wake(th)
				break
			}
		}
	}
	if got, scan := rt.running.Load(), runningByScan(rt); got != 0 || scan != 0 {
		t.Fatalf("after the run: running = %d, scan = %d", got, scan)
	}
	t.Logf("%d zero crossings in %d steps", crossings, steps)
}

// besideHogs runs f on two Ps beside two goroutines that never yield theirs:
// a woken thread can sit runnable and unscheduled for a long time, which a
// sampled quiescence would read as a stall. The other hostile scheduler, one
// P, is CI's `GOMAXPROCS=1 go test` step over this whole package.
func besideHogs(t *testing.T, f func(*testing.T)) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
			}
		}()
	}
	defer wg.Wait()
	defer stop.Store(true)
	f(t)
}

func TestProtocolBesideHogs(t *testing.T) {
	for _, c := range []struct {
		name string
		f    func(*testing.T)
	}{
		{"IdenticalReplay", TestIdenticalReplay},
		{"ReplayOfMiddleEpoch", TestReplayOfMiddleEpoch},
		{"CondVarIdenticalReplay", TestCondVarIdenticalReplay},
		{"BarrierIdenticalReplay", TestBarrierIdenticalReplay},
		{"TryLockIdenticalReplay", TestTryLockIdenticalReplay},
		{"MainExitAtEventCap", TestMainExitAtEventCap},
		{"OfflineReplayMultiEpoch", TestOfflineReplayMultiEpoch},
		{"RollbackRacingResume", TestRollbackRacingUnconsumedResume},
		{"StopRacingCreate", TestStopRacingCreateStartMessage},
		{"RollbackSettlesExited", TestRollbackSettlesExitedThreads},
	} {
		t.Run(c.name, func(t *testing.T) { besideHogs(t, c.f) })
	}
}

// TestRollbackRacingUnconsumedResume re-creates the first of PR 1's
// hand-off windows: rollbacks follow each other so closely that a resume
// message may still be unconsumed when the coordinator next looks. Seen as
// quiescent, that world reads as a stall, and the retry's send deadlocks on
// the full start channel. Every re-execution here is demanded by the tool,
// and every one must match.
func TestRollbackRacingUnconsumedResume(t *testing.T) {
	const perEpoch = 3
	opts := Options{
		EventCap: 32,
		VarCap:   256,
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			return Replay
		},
		OnReplayMatched: func(rt *Runtime, attempts int) Decision {
			if attempts < perEpoch {
				return Replay
			}
			return Proceed
		},
	}
	rt, err := New(buildCounter(3, 40), opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exit != 120 {
		t.Fatalf("counter = %d, want 120", rep.Exit)
	}
	requireNoRetry(t, rt, rep.Stats)
	if want := rep.Stats.Epochs * perEpoch; rep.Stats.Replays != want {
		t.Fatalf("%d replays over %d epochs, want %d", rep.Stats.Replays, rep.Stats.Epochs, want)
	}
}

// TestStopRacingCreateStartMessage re-creates the second window: epoch stops
// — from exhausted lists and from a tool goroutine — land while main is
// creating threads, so a child can hold an unconsumed start message when the
// stop is requested. Every boundary is replayed; a child started against a
// world being restored, or left out of it, shows as a wrong sum, a
// divergence or a hang.
func TestStopRacingCreateStartMessage(t *testing.T) {
	const workers, iters = 12, 6
	opts := Options{
		EventCap: 16,
		VarCap:   256,
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			return Replay
		},
	}
	rt, err := New(buildCounter(workers, iters), opts)
	if err != nil {
		t.Fatal(err)
	}
	var stop atomic.Bool
	poked := make(chan struct{})
	go func() {
		defer close(poked)
		for !stop.Load() {
			rt.RequestEpochEnd()
			runtime.Gosched()
		}
	}()
	rep, err := rt.Run()
	stop.Store(true)
	<-poked
	if err != nil {
		t.Fatal(err)
	}
	if rep.Exit != workers*iters {
		t.Fatalf("counter = %d, want %d", rep.Exit, workers*iters)
	}
	requireNoRetry(t, rt, rep.Stats)
	if rep.Stats.Replays != rep.Stats.Epochs {
		t.Fatalf("%d replays over %d epochs, want one each", rep.Stats.Replays, rep.Stats.Epochs)
	}
}

// settleObserver checks a rollback between its settle step and its first
// resume (OnReset runs exactly there), and the lifecycle callbacks of the
// re-execution that follows.
type settleObserver struct {
	rt *Runtime

	mu     sync.Mutex
	exits  map[int32]bool // exit callbacks since the last reset
	live   map[int32]bool // live at the checkpoint the last reset restored
	redone int            // threads found at a reset with an abandoned exit behind them
	errs   []string
}

func (o *settleObserver) OnThreadCreate(parent, child int32) {}

func (o *settleObserver) OnThreadExit(tid int32) {
	o.mu.Lock()
	o.exits[tid] = true
	o.mu.Unlock()
}

func (o *settleObserver) OnThreadJoin(joiner, joinee int32) {
	o.mu.Lock()
	if o.live[joinee] && !o.exits[joinee] {
		o.errs = append(o.errs, fmt.Sprintf("thread %d joined thread %d before its replayed exit", joiner, joinee))
	}
	o.mu.Unlock()
}

func (o *settleObserver) OnReset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.live = map[int32]bool{}
	for _, ts := range o.rt.ckpt.Threads {
		if ts.Exited {
			continue
		}
		tid := ts.TID
		o.live[tid] = true
		if o.exits[tid] {
			o.redone++
		}
		if st := o.rt.thread(tid).state.Load(); st != tsUnwound {
			o.errs = append(o.errs, fmt.Sprintf("thread %d, live at the checkpoint, is %s when the resumes begin", tid, stateName(st)))
		}
	}
	o.exits = map[int32]bool{}
}

// buildJoinSum: main creates workers threads that each take a shared mutex
// iters times and return 100 plus their index, then joins them in creation
// order and returns the sum of their exit values.
func buildJoinSum(workers int, iters int64) *tir.Module {
	mb := tir.NewModuleBuilder()
	gMutex := mb.Global("mutex", 8)
	gCounter := mb.Global("counter", 8)
	w := mb.Func("worker", 1)
	{
		i, lim, cond, maddr, caddr, v, one := w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg(), w.NewReg()
		w.ConstI(i, 0)
		w.ConstI(lim, iters)
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
		w.AddI(v, w.Param(0), 100) // the exit value main collects through its join
		w.Ret(v)
		w.Seal()
	}
	m := mb.Func("main", 0)
	{
		tids := make([]tir.Reg, workers)
		fnr, argr, sum, r := m.NewReg(), m.NewReg(), m.NewReg(), m.NewReg()
		m.ConstI(fnr, int64(w.Index()))
		for i := range tids {
			tids[i] = m.NewReg()
			m.ConstI(argr, int64(i))
			m.Intrin(tids[i], tir.IntrinThreadCreate, fnr, argr)
		}
		m.ConstI(sum, 0)
		for i := range tids {
			m.Intrin(r, tir.IntrinThreadJoin, tids[i])
			m.Bin(tir.Add, sum, sum, r)
		}
		m.Ret(sum)
		m.Seal()
	}
	mb.SetEntry("main")
	return mb.MustBuild()
}

// TestRollbackSettlesExitedThreads: a thread that was live at the checkpoint
// and ran to its exit in the abandoned epoch must not still read as exited
// when the first thread is resumed. Resumes go out in id order and a replayed
// join is gated by the joinee's state alone, so main — resumed first — would
// otherwise complete its join against the abandoned exit: stale exit value,
// join callback before exit callback, every event matching.
func TestRollbackSettlesExitedThreads(t *testing.T) {
	const workers, iters = 4, 30
	o := &settleObserver{exits: map[int32]bool{}}
	rt, err := New(buildJoinSum(workers, iters), Options{
		EventCap:  32,
		VarCap:    256,
		Observers: []Observer{o},
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			return Replay
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.rt = rt
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(workers*100 + workers*(workers-1)/2); rep.Exit != want {
		t.Fatalf("sum of joined exit values = %d, want %d", rep.Exit, want)
	}
	requireNoRetry(t, rt, rep.Stats)
	if len(o.errs) > 0 {
		t.Fatal(strings.Join(o.errs, "; "))
	}
	if o.redone == 0 {
		t.Fatal("no rollback found a thread that had exited in the abandoned epoch: the test exercised nothing")
	}
}

// exitValObserver reads, at every rollback — OnReset runs after the settle
// step and before the first resume — the exit value of each thread the
// restored checkpoint holds.
type exitValObserver struct {
	rt *Runtime

	mu      sync.Mutex
	exited  map[int32]bool // exit callbacks since the last reset
	checked int            // live-at-checkpoint threads read with an abandoned exit behind them
	errs    []string
}

func (o *exitValObserver) OnThreadCreate(parent, child int32) {}
func (o *exitValObserver) OnThreadJoin(joiner, joinee int32)  {}

func (o *exitValObserver) OnThreadExit(tid int32) {
	o.mu.Lock()
	o.exited[tid] = true
	o.mu.Unlock()
}

func (o *exitValObserver) OnReset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, ts := range o.rt.ckpt.Threads {
		if !ts.Exited && o.exited[ts.TID] {
			o.checked++
		}
		if got := o.rt.thread(ts.TID).exitVal; got != ts.ExitVal {
			o.errs = append(o.errs, fmt.Sprintf("thread %d reads exit value %d after the rollback, checkpoint holds %d", ts.TID, got, ts.ExitVal))
		}
	}
	o.exited = map[int32]bool{}
}

// TestRollbackRestoresExitValue: a thread live at the checkpoint that exits
// with a value in an epoch that is then rolled back must read the
// checkpoint's exit value again until it re-exits — the abandoned epoch's
// value belongs to no execution the replay reproduces.
func TestRollbackRestoresExitValue(t *testing.T) {
	const workers, iters = 4, 30
	o := &exitValObserver{exited: map[int32]bool{}}
	rt, err := New(buildJoinSum(workers, iters), Options{
		EventCap:  32,
		VarCap:    256,
		Observers: []Observer{o},
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			return Replay
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	o.rt = rt
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(workers*100 + workers*(workers-1)/2); rep.Exit != want {
		t.Fatalf("sum of joined exit values = %d, want %d", rep.Exit, want)
	}
	if len(o.errs) > 0 {
		t.Fatal(strings.Join(o.errs, "; "))
	}
	if o.checked == 0 {
		t.Fatal("no rollback found a thread that had exited in the abandoned epoch: the test exercised nothing")
	}
}

// swapLockTurns swaps the recorded turns of the first two mutex
// acquisitions of the first thread in ep that locked twice, so a replay of
// ep stalls on every attempt. It returns that thread's id.
func swapLockTurns(t *testing.T, ep *record.EpochLog) int32 {
	t.Helper()
	for ti := range ep.Threads {
		var locks []*record.Event
		for ei := range ep.Threads[ti].Events {
			if ev := &ep.Threads[ti].Events[ei]; ev.Kind == record.KMutexLock {
				locks = append(locks, ev)
			}
		}
		if len(locks) >= 2 {
			locks[0].Pos, locks[1].Pos = locks[1].Pos, locks[0].Pos
			return ep.Threads[ti].TID
		}
	}
	t.Fatal("no thread locked twice")
	return -1
}

// TestStallVerdictIsDeterministic: a trace whose order cannot be scheduled —
// one thread's two acquisitions of a mutex recorded in swapped turns — stalls
// every attempt. With counted quiescence the verdict needs no grace period:
// each attempt is declared diverged once, and the verdict says who is stuck
// on what.
func TestStallVerdictIsDeterministic(t *testing.T) {
	const maxReplays = 5
	var epochs []*record.EpochLog
	mod := buildCounter(2, 20)
	rt, err := New(mod, Options{TraceSink: func(ep *record.EpochLog) error {
		epochs = append(epochs, ep)
		return nil
	}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	swapped := swapLockTurns(t, epochs[0])
	rp, err := prepareReplay(mod, epochs, Options{MaxReplays: maxReplays, DelayOnDivergence: true})
	if err != nil {
		t.Fatal(err)
	}
	_, err = rp.RunReplay()
	if err == nil || !strings.Contains(err.Error(), "diverged 5 times") {
		t.Fatalf("err = %v, want the search exhausted after %d attempts", err, maxReplays)
	}
	st := rp.StatsSnapshot()
	if st.Replays != maxReplays || st.Divergences != maxReplays || st.MatchedReplays != 0 {
		t.Fatalf("stats = %+v, want every one of %d attempts declared diverged exactly once", st, maxReplays)
	}
	for _, want := range []string{
		"thread 0 stalled before its recorded join", "parked on the exit of thread",
		fmt.Sprintf("thread %d stalled before its recorded lock", swapped), "parked on variable", "the turn is",
	} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("stall verdict %q does not say %q", err, want)
		}
	}
}

func TestStatsParks(t *testing.T) {
	mb := tir.NewModuleBuilder()
	m := mb.Func("main", 0)
	r := m.NewReg()
	m.ConstI(r, 7)
	m.Ret(r)
	m.Seal()
	mb.SetEntry("main")
	rt, err := New(mb.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Parks != 0 {
		t.Fatalf("a program that never waits parked %d times", rep.Stats.Parks)
	}
	// Main joins three workers: it sleeps at least once, and so does every
	// thread an epoch stop catches.
	rt, err = New(buildCounter(3, 200), Options{EventCap: 64, VarCap: 512})
	if err != nil {
		t.Fatal(err)
	}
	if rep, err = rt.Run(); err != nil {
		t.Fatal(err)
	}
	if rep.Stats.Parks == 0 || rep.Stats.Parks != rt.StatsSnapshot().Parks {
		t.Fatalf("parks = %d in the report, %d in the snapshot", rep.Stats.Parks, rt.StatsSnapshot().Parks)
	}
}
