// Package core assembles the iReplayer runtime: the vthread layer
// (goroutine-backed threads with recorded synchronization), the epoch
// coordinator (checkpoint / stop-the-world / rollback), and the replay
// controller (per-variable turn gating with divergence search).
//
// It wires together the substrates — interp (checkpointable CPUs), mem
// (snapshottable address space), heap (deterministic allocator), vsys
// (classified virtual syscalls), and record (per-thread/per-variable event
// lists) — into the system described in §2 and §3 of the paper.
//
// # Counted quiescence
//
// Runtime.running is the number of vthreads whose state is tsRunning. It
// moves in exactly one function, Thread.setStateLocked, and only on a state
// *transition*: non-running → running is +1, running → non-running is −1, a
// repeated mark is a no-op. The thread that takes the count to zero posts to
// the one-slot Runtime.quiet channel; the coordinator's whole wait is "load
// the count; if non-zero, receive and re-check" (awaitQuiescence). Nothing in
// the epoch protocol sleeps or samples.
//
// What makes the count trustworthy is one rule: a wake is counted by the
// waker before it is observable. Whoever makes a non-running thread runnable
// performs that thread's → tsRunning transition on its behalf first, while
// the waker is itself still counted (a vthread) or before it starts waiting
// (the coordinator, a tool goroutine). A runnable-but-unscheduled thread is
// therefore never mistaken for a parked one, on any host, however
// oversubscribed — the count cannot reach zero with a wake in flight.
//
// # park / wake
//
// Every blocking site of a started vthread goes through Thread.park; every
// wake through Runtime.wake. Both run under the sleeper's own lock (pk, a
// leaf lock), so for one thread they are totally ordered:
//
//   - t.park(state) consumes a pending wake token and returns at once (the
//     thread stays running, the count is untouched), or else performs the
//     running → state transition and sleeps on its one-slot wake channel.
//     Only t calls t.park, and tsBlocked and tsStopped are entered nowhere
//     else, so "t is parked" is exactly "t's state is one of the two".
//   - rt.wake(t) performs the parked → running transition on t's behalf and
//     then sends, or — t has not parked yet — leaves a token for t's next
//     park. A waker that runs between a waiter's decision to wait and its
//     park is thereby never lost, and never counted late.
//   - One wake per sleep however many lists name the sleeper: whoever finds
//     it parked wins the transition; the others find it running and leave a
//     token. Tokens and stale wait-list entries cost one spurious trip round
//     the caller's loop — every park site re-tests its condition and the
//     phase after park returns, and must.
//
// Sleepers are named, never anonymous: by the wait lists of a syncVar
// (sleepers, turnSleepers — guarded by syncVar.mu, which every wait site holds
// when it decides to wait), by the joinee's joiners list (guarded by its
// exitMu), and by rt.threads for a phase change.
//
// # Who may wake whom
//
//   - A running vthread wakes the sleepers of a variable it changed (mutex
//     release, cond signal, barrier release, replay-turn advance), the
//     joiners of its own exit, and — through requestStop/requestReplayStop —
//     everybody. It does so before its own next park, so it is still
//     counted.
//   - A creator marks its child running before handing it the start message;
//     the coordinator does the same for every resume message of a rollback
//     and for main at program start. Threads waiting at the trampoline for a
//     message (tsEmbryo, tsUnwound, tsExited) are not parked: the message is
//     their wake.
//   - The coordinator (monitor goroutine, or RunReplay's caller offline)
//     wakes everybody through setPhase; it does so before it starts waiting,
//     so after setPhase(phRollback) "count zero" means every thread it woke
//     has unwound to its trampoline.
//   - A tool goroutine's RequestEpochEnd is a requestStop like any other:
//     the wakes precede the signal that starts the coordinator's wait.
package core

import "fmt"

// waitKind says what a parked thread is waiting for; with the fields beside
// it in waitInfo it lets a stall verdict name the obstacle.
type waitKind int8

const (
	wkPhase   waitKind = iota // nothing but a phase change: epoch stop, replay completion, segment boundary
	wkTurn                    // replay turn on a variable's order list
	wkMutex                   // mutex held by another thread
	wkCond                    // condition-variable fuel (and, replaying, its turn)
	wkBarrier                 // barrier generation
	wkJoin                    // another thread's exit
)

// waitInfo is written by a thread just before it parks and read by the
// coordinator once the count is zero; the count's decrement and load order
// the two.
type waitInfo struct {
	kind waitKind
	s    *syncVar
	pos  int32
	on   *Thread
}

// waitList names the threads sleeping on one condition. It has no lock of
// its own: the owner's lock (syncVar.mu, Thread.exitMu) guards it.
type waitList []*Thread

// add enlists t once; a thread that was woken through another list or by a
// phase change may come round its loop while still enlisted here.
func (l *waitList) add(t *Thread) {
	for _, w := range *l {
		if w == t {
			return
		}
	}
	*l = append(*l, t)
}

// wakeAll wakes every enlisted thread and empties the list.
func (l *waitList) wakeAll(rt *Runtime) {
	for _, w := range *l {
		rt.wake(w)
	}
	*l = (*l)[:0]
}

// setState is the one way a thread's state is stored.
func (t *Thread) setState(s int32) {
	t.pk.Lock()
	t.setStateLocked(s)
	t.pk.Unlock()
}

// setStateLocked stores s and moves the running count along the transition.
// t.pk must be held.
func (t *Thread) setStateLocked(s int32) {
	old := t.state.Swap(s)
	switch {
	case old == s:
	case s == tsRunning:
		t.rt.running.Add(1)
	case old == tsRunning:
		if t.rt.running.Add(-1) == 0 {
			select {
			case t.rt.quiet <- struct{}{}:
			default: // an unconsumed post is already there; the coordinator re-checks the count
			}
		}
	}
}

// park blocks the calling thread in the given non-running state until some
// waker wakes it, unless a wake is already pending. On return the thread is
// running — by the waker's hand, or because it never stopped — and the
// caller re-tests whatever it was waiting for.
func (t *Thread) park(state int32, why waitInfo) {
	t.pk.Lock()
	if t.token {
		t.token = false
		t.pk.Unlock()
		return
	}
	t.waiting = why
	t.parks.Add(1)
	t.setStateLocked(state)
	t.pk.Unlock()
	<-t.wakeCh
}

// wake makes t runnable: a parked t is marked running here, by the waker,
// before the send that lets it run; a t that has not parked yet finds the
// token at its next park.
func (rt *Runtime) wake(t *Thread) {
	t.pk.Lock()
	if s := t.state.Load(); s != tsBlocked && s != tsStopped {
		t.token = true
		t.pk.Unlock()
		return
	}
	t.setStateLocked(tsRunning)
	t.pk.Unlock()
	// Never blocks, so callers may hold their list's lock: there is one send
	// per parked → running flip, and t cannot park again before it has
	// received this one.
	t.wakeCh <- struct{}{}
}

// wakeAll wakes every thread; with the phase stored first it is how a phase
// change reaches parked threads.
func (rt *Runtime) wakeAll() {
	rt.mu.Lock()
	for _, t := range rt.threads {
		if t != nil {
			rt.wake(t)
		}
	}
	rt.mu.Unlock()
}

// awaitQuiescence blocks until no thread is running — the "all threads have
// reached a quiescent state" condition of §2.1/§3.3. Threads blocked on
// synchronization count as stopped: with every other thread parked, nothing
// can wake them.
func (rt *Runtime) awaitQuiescence() error { return rt.awaitZero(false) }

// awaitUnwound is the wait after setPhase(phRollback): the phase change
// marked every parked thread running, each unwinds to its trampoline, and
// count zero is all-unwound.
func (rt *Runtime) awaitUnwound() error { return rt.awaitZero(true) }

// awaitZero waits for the running count to reach zero. A post may be stale
// (the count left zero again, or nobody was waiting when it was sent), hence
// the re-check. Zero is then verified against a scan of the thread states —
// the assertion, not the mechanism: a thread still marked running (or, after
// a rollback, still parked) is a bug in the accounting, and proceeding would
// checkpoint or restore a moving world.
func (rt *Runtime) awaitZero(unwound bool) error {
	for rt.running.Load() != 0 { //ir:nopoll interrupt parks guest threads at gated points; the last one to park posts and ends this wait
		<-rt.quiet
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.threads {
		if t == nil {
			continue
		}
		s := t.state.Load()
		if s == tsRunning || unwound && (s == tsBlocked || s == tsStopped) {
			return fmt.Errorf("core: quiescence accounting: running count is zero but thread %d is %s", t.id, stateName(s))
		}
	}
	return nil
}

func stateName(s int32) string {
	switch s {
	case tsEmbryo:
		return "embryo"
	case tsRunning:
		return "running"
	case tsBlocked:
		return "blocked"
	case tsStopped:
		return "stopped"
	case tsExited:
		return "exited"
	case tsUnwound:
		return "unwound"
	case tsDead:
		return "dead"
	}
	return fmt.Sprintf("state(%d)", s)
}
