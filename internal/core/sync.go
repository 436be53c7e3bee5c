package core

import (
	"fmt"
	"sync"

	"repro/internal/hostrace"
	"repro/internal/interp"
	"repro/internal/record"
)

// Pseudo-variable addresses for runtime-internal recorded locks: thread
// creation (§3.2.1: creations are serialized by a global mutex and their
// order recorded) and super-heap block fetches (§2.2.4). They live outside
// every memory segment so they can never collide with application
// synchronization objects.
const (
	createVarAddr uint64 = 1
	superVarAddr  uint64 = 2
)

// syncVar is the shadow synchronization object (§3.2). The application's
// synchronization variable is just bytes in VM memory; on first use the
// runtime allocates this shadow from its own (Go) heap — isolated from
// application memory — and stores the shadow's index in the first word of
// the variable, the paper's level of indirection that avoids a global hash
// table on the hot path.
type syncVar struct {
	id   int32
	addr uint64

	mu sync.Mutex
	// sleepers wait for the variable to change (mutex release, cond fuel,
	// barrier generation); turnSleepers for the replay turn to advance. A
	// thread enlists under mu in the critical section that found its
	// condition false, then parks; whoever changes the condition wakes the
	// list under mu.
	sleepers     waitList
	turnSleepers waitList

	// order is the per-variable list of Figure 4.
	order *record.VarList

	// Mutex state.
	locked bool
	holder int32

	// Condition-variable state: fuel is the number of undelivered wakeups
	// (signal adds one, broadcast tops up to the waiter count); the order in
	// which waiters consume fuel is the recorded wake-up order.
	waiters int
	fuel    int

	// Barrier state (reimplemented over mutex+cond machinery so waiters can
	// be observed and interrupted, §3.2.1).
	parties int64
	arrived int64
	gen     int64
}

// varCkpt is the portion of shadow state captured at epoch begin and
// restored on rollback: everything a waiting thread's re-entry depends on.
type varCkpt struct {
	locked  bool
	holder  int32
	waiters int
	fuel    int
	parties int64
	arrived int64
	gen     int64
}

func (s *syncVar) checkpoint() varCkpt {
	s.mu.Lock()
	defer s.mu.Unlock()
	return varCkpt{locked: s.locked, holder: s.holder, waiters: s.waiters,
		fuel: s.fuel, parties: s.parties, arrived: s.arrived, gen: s.gen}
}

func (s *syncVar) restore(c varCkpt) {
	s.mu.Lock()
	s.locked, s.holder, s.waiters = c.locked, c.holder, c.waiters
	s.fuel, s.parties, s.arrived, s.gen = c.fuel, c.parties, c.arrived, c.gen
	s.order.ResetReplay()
	// Rollback has unwound every thread; whoever is still listed is not
	// waiting here any more.
	s.sleepers, s.turnSleepers = s.sleepers[:0], s.turnSleepers[:0]
	s.mu.Unlock()
}

func (s *syncVar) advanceTurn(rt *Runtime) {
	s.mu.Lock()
	s.order.AdvanceTurn()
	s.turnSleepers.wakeAll(rt)
	s.mu.Unlock()
}

// loadVarWord / storeVarWord access the shadow-index cache word inside the
// variable. The plain fast path may race with a concurrent first-use
// rewrite by another thread — harmless by design, varFor validates whatever
// it reads — but under the host race detector the access is routed through
// the serialized atomic path so the runtime's own accesses stay clean.
func (rt *Runtime) loadVarWord(addr uint64) (uint64, error) {
	if hostrace.Enabled {
		return rt.mem.AtomicLoad64(addr)
	}
	return rt.mem.Load64(addr)
}

func (rt *Runtime) storeVarWord(addr uint64, v uint64) {
	if hostrace.Enabled {
		rt.mem.AtomicStore64(addr, v)
		return
	}
	rt.mem.Store64(addr, v)
}

// varFor resolves the shadow object for the synchronization variable at
// addr, creating it on first use. The shadow index is cached in the first
// word of the variable itself; the address-keyed map guarantees that a
// re-execution resolves to the same shadow after rollback restored the
// pre-first-use memory (§3.4: the hash table assisting re-execution).
func (rt *Runtime) varFor(addr uint64) (*syncVar, error) {
	if addr == createVarAddr {
		return rt.createVar, nil
	}
	if addr == superVarAddr {
		return rt.superVar, nil
	}
	if w, err := rt.loadVarWord(addr); err == nil {
		if idx := int64(w) - 1; idx >= 0 && idx < int64(len(rt.shadowList())) {
			s := rt.shadowList()[idx]
			if s.addr == addr {
				return s, nil
			}
		}
	} else {
		return nil, fmt.Errorf("core: synchronization variable at unmapped address %#x", addr)
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if s, ok := rt.shadows[addr]; ok {
		// Known variable whose in-memory index word was rolled back; rewrite
		// the cache word.
		rt.storeVarWord(addr, uint64(s.id)+1)
		return s, nil
	}
	s := rt.newSyncVarLocked(addr)
	rt.storeVarWord(addr, uint64(s.id)+1)
	return s, nil
}

// newSyncVarLocked allocates a shadow; rt.mu must be held. The table is
// republished copy-on-write so concurrent lock-free readers never observe a
// partially updated slice.
func (rt *Runtime) newSyncVarLocked(addr uint64) *syncVar {
	cur := rt.shadowList()
	s := &syncVar{
		id:    int32(len(cur)),
		addr:  addr,
		order: record.NewVarList(rt.opts.VarCap),
	}
	next := make([]*syncVar, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = s
	rt.shadowL.Store(&next)
	if addr != createVarAddr && addr != superVarAddr {
		rt.shadows[addr] = s
	}
	return s
}

// appendVar appends tid to s's per-variable list, requesting an epoch end
// while enough margin remains for every thread to finish its in-flight
// interception (at most two ordered events each).
func (rt *Runtime) appendVar(s *syncVar, tid int32) int32 {
	s.mu.Lock()
	pos, _ := s.order.Append(tid)
	low := s.order.Cap()-s.order.Len() <= 2*rt.opts.Mem.MaxThreads+4
	s.mu.Unlock()
	if low {
		rt.requestStop(StopLogFull, tid)
	}
	return pos
}

// diverge records a replay divergence and unwinds the calling thread: the
// attempted action does not match the recorded event, which can only be
// caused by an unresolved race (§3.5.2); the monitor will immediately start
// another re-execution.
func (t *Thread) diverge(kind record.Kind, varAddr uint64, got *record.Event) error {
	t.rt.noteDivergence(t, kind, varAddr, got)
	// Park through the replay stop, then unwind at rollback.
	if err := t.intercept(); err != nil {
		return err
	}
	return interp.ErrUnwind
}

// waitTurn blocks until pos is the head of s's per-variable replay cursor —
// the §3.5.1 rule: a thread proceeds only when its next per-thread event is
// also the first unconsumed event of the variable's list.
func (t *Thread) waitTurn(s *syncVar, pos int32) error {
	rt := t.rt
	for {
		switch rt.phase() {
		case phRollback:
			return interp.ErrUnwind
		case phShutdown:
			return errShutdown
		case phReplayStopping, phStopping:
			t.park(tsStopped, waitInfo{})
			continue
		}
		s.mu.Lock()
		if s.order.Turn() == pos {
			s.mu.Unlock()
			return nil
		}
		s.turnSleepers.add(t)
		s.mu.Unlock()
		t.park(tsBlocked, waitInfo{kind: wkTurn, s: s, pos: pos})
	}
}

// acquire takes the underlying mutex, interruptibly (§3.3: threads blocked
// on lock acquisition must still be stoppable; because every park is also
// woken by a phase change, the paper's temporary-release trick is
// unnecessary — blocked waiters already count as quiescent).
func (t *Thread) acquire(s *syncVar) error {
	rt := t.rt
	for {
		switch rt.phase() {
		case phRollback:
			return interp.ErrUnwind
		case phShutdown:
			return errShutdown
		}
		s.mu.Lock()
		if !s.locked {
			s.locked = true
			s.holder = t.id
			// Notify under s.mu: acquisition callbacks for one variable are
			// thereby delivered in true acquisition order.
			rt.notifySync(t.id, SyncAcquire, s.addr)
			s.mu.Unlock()
			return nil
		}
		s.sleepers.add(t)
		s.mu.Unlock()
		t.park(tsBlocked, waitInfo{kind: wkMutex, s: s})
	}
}

// releaseInternal releases the underlying mutex without recording (mutex
// releases are fixed by program order and need no events).
func (t *Thread) releaseInternal(s *syncVar) error {
	s.mu.Lock()
	if !s.locked || s.holder != t.id {
		s.mu.Unlock()
		return fmt.Errorf("core: thread %d unlocking mutex %#x it does not hold", t.id, s.addr)
	}
	s.locked = false
	s.holder = -1
	// Under s.mu, so the release is observed before any subsequent
	// acquisition of the same variable.
	t.rt.notifySync(t.id, SyncRelease, s.addr)
	s.sleepers.wakeAll(t.rt)
	s.mu.Unlock()
	return nil
}

// mutexLock implements the mutex_lock intrinsic (§3.2.1).
func (t *Thread) mutexLock(addr uint64) error {
	if err := t.intercept(); err != nil {
		return err
	}
	s, err := t.rt.varFor(addr)
	if err != nil {
		return err
	}
	return t.lockRecorded(s)
}

// lockRecorded is the shared recorded-acquisition path used by mutex_lock
// and by the reacquisition half of cond_wait.
func (t *Thread) lockRecorded(s *syncVar) error {
	rt := t.rt
	if rt.phaseIs(phReplay) {
		ev, err := t.nextReplayEvent()
		if err != nil {
			return err
		}
		if ev != nil {
			if !record.Matches(ev, record.KMutexLock, s.addr, 0) {
				return t.diverge(record.KMutexLock, s.addr, ev)
			}
			if err := t.waitTurn(s, ev.Pos); err != nil {
				return err
			}
			if err := t.acquire(s); err != nil {
				return err
			}
			t.list.Advance()
			s.advanceTurn(rt)
			return nil
		}
		// nextReplayEvent switched the world back to recording: fall
		// through and record this acquisition in the new epoch.
	}
	if err := t.acquire(s); err != nil {
		return err
	}
	pos := rt.appendVar(s, t.id)
	t.appendEvent(record.Event{Kind: record.KMutexLock, Var: s.addr, Pos: pos})
	return nil
}

// mutexUnlock implements the mutex_unlock intrinsic.
func (t *Thread) mutexUnlock(addr uint64) error {
	if err := t.intercept(); err != nil {
		return err
	}
	s, err := t.rt.varFor(addr)
	if err != nil {
		return err
	}
	if err := t.releaseInternal(s); err != nil && t.rt.phaseIs(phReplay) {
		// An impossible unlock during replay is divergent control flow, not
		// a program bug (§3.5.2).
		return t.diverge(record.KMutexLock, s.addr, nil)
	} else if err != nil {
		return err
	}
	return nil
}

// mutexTryLock implements mutex_trylock: the result is always recorded in
// the per-thread list, but only successful acquisitions enter the
// per-variable list (§3.2.1).
func (t *Thread) mutexTryLock(addr uint64) (uint64, error) {
	if err := t.intercept(); err != nil {
		return 0, err
	}
	rt := t.rt
	s, err := rt.varFor(addr)
	if err != nil {
		return 0, err
	}
	if rt.phaseIs(phReplay) {
		ev, err := t.nextReplayEvent()
		if err != nil {
			return 0, err
		}
		if ev != nil {
			if !record.Matches(ev, record.KMutexTry, s.addr, 0) {
				return 0, t.diverge(record.KMutexTry, s.addr, ev)
			}
			if ev.Ret == 0 {
				// Recorded failure: return it without touching the lock.
				t.list.Advance()
				return 0, nil
			}
			if err := t.waitTurn(s, ev.Pos); err != nil {
				return 0, err
			}
			if err := t.acquire(s); err != nil {
				return 0, err
			}
			t.list.Advance()
			s.advanceTurn(rt)
			return 1, nil
		}
	}
	s.mu.Lock()
	var ret uint64
	pos := int32(-1)
	low := false
	if !s.locked {
		s.locked = true
		s.holder = t.id
		ret = 1
		pos, _ = s.order.Append(t.id)
		low = s.order.Cap()-s.order.Len() <= 2*rt.opts.Mem.MaxThreads+4
		rt.notifySync(t.id, SyncAcquire, s.addr)
	}
	s.mu.Unlock()
	t.appendEvent(record.Event{Kind: record.KMutexTry, Var: s.addr, Ret: ret, Pos: pos})
	if low {
		rt.requestStop(StopLogFull, t.id)
	}
	return ret, nil
}

// condWait implements cond_wait(cond, mutex): a recorded-release of the
// mutex, a wait for wake-up fuel, a recorded wake-up event on the condition
// variable, and a recorded reacquisition of the mutex (§3.2.1).
func (t *Thread) condWait(caddr, maddr uint64) error {
	if err := t.intercept(); err != nil {
		return err
	}
	rt := t.rt
	c, err := rt.varFor(caddr)
	if err != nil {
		return err
	}
	m, err := rt.varFor(maddr)
	if err != nil {
		return err
	}
	// A thread that was already waiting at epoch begin re-enters here after
	// rollback with resumeBlock set: the restored shared state (waiter count,
	// released mutex) already accounts for it, so it skips the entry phase
	// (§3.1: waiting threads are checkpointed in their waiting state).
	skipEntry := t.resumeBlock.kind == bkCondWait && t.resumeBlock.vaddr == caddr
	if skipEntry {
		t.resumeBlock = blockInfo{}
	}

	if rt.phaseIs(phReplay) {
		ev, err := t.nextReplayEvent()
		if err != nil {
			return err
		}
		if ev != nil {
			if !record.Matches(ev, record.KCondWake, c.addr, 0) {
				return t.diverge(record.KCondWake, c.addr, ev)
			}
			if !skipEntry {
				if err := t.releaseInternal(m); err != nil {
					return t.diverge(record.KCondWake, c.addr, nil)
				}
				c.mu.Lock()
				c.waiters++
				c.mu.Unlock()
			}
			t.block = blockInfo{kind: bkCondWait, vaddr: caddr, maddr: maddr}
			if err := t.condConsume(c, ev.Pos); err != nil {
				return err
			}
			t.list.Advance()
			c.advanceTurn(rt)
			t.block = blockInfo{}
			return t.lockRecorded(m)
		}
		// World switched to recording while our list was exhausted: execute
		// a fresh wait below. skipEntry still applies if set.
	}

	if !skipEntry {
		if err := t.releaseInternal(m); err != nil {
			return err
		}
		c.mu.Lock()
		c.waiters++
		c.mu.Unlock()
	}
	t.block = blockInfo{kind: bkCondWait, vaddr: caddr, maddr: maddr}
	if err := t.condConsume(c, -1); err != nil {
		return err
	}
	pos := rt.appendVar(c, t.id)
	t.appendEvent(record.Event{Kind: record.KCondWake, Var: c.addr, Pos: pos})
	t.block = blockInfo{}
	return t.lockRecorded(m)
}

// condConsume waits for one unit of wake-up fuel; during replay (pos >= 0)
// it additionally waits for the recorded wake-up turn, so threads leave the
// condition variable in exactly the recorded order.
func (t *Thread) condConsume(c *syncVar, pos int32) error {
	rt := t.rt
	for {
		switch rt.phase() {
		case phRollback:
			return interp.ErrUnwind
		case phShutdown:
			return errShutdown
		}
		c.mu.Lock()
		turnOK := pos < 0 || c.order.Turn() == pos
		if turnOK && c.fuel > 0 {
			c.fuel--
			c.waiters--
			rt.notifySync(t.id, SyncWake, c.addr)
			c.mu.Unlock()
			return nil
		}
		c.sleepers.add(t)
		if pos >= 0 {
			c.turnSleepers.add(t)
		}
		c.mu.Unlock()
		t.park(tsBlocked, waitInfo{kind: wkCond, s: c, pos: pos})
	}
}

// condSignal implements cond_signal. Signal order itself is not recorded —
// only the wake-up order of waiters is (§3.2.1); with improperly paired
// locking this can yield a non-identical replay, which the divergence search
// plus random delays then resolves (the bodytrack case, §5.2.1).
func (t *Thread) condSignal(addr uint64, broadcast bool) error {
	if err := t.intercept(); err != nil {
		return err
	}
	c, err := t.rt.varFor(addr)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if broadcast {
		c.fuel = c.waiters
	} else if c.fuel < c.waiters {
		c.fuel++
	}
	// A signal publishes the signaller's prior work to whichever waiter
	// consumes the fuel; notify under c.mu so it precedes that wake.
	t.rt.notifySync(t.id, SyncSignal, c.addr)
	c.sleepers.wakeAll(t.rt)
	c.mu.Unlock()
	return nil
}

// barrierInit implements barrier_init (§3.2.1: barriers are re-implemented
// over mutex+cond machinery so waiters can be woken for epoch operations).
func (t *Thread) barrierInit(addr uint64, parties uint64) error {
	if err := t.intercept(); err != nil {
		return err
	}
	if parties == 0 {
		return fmt.Errorf("core: barrier_init with zero parties")
	}
	s, err := t.rt.varFor(addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	s.parties = int64(parties)
	s.arrived = 0
	s.gen = 0
	s.mu.Unlock()
	return nil
}

// barrierWait implements barrier_wait. Entry order is not recorded (a
// waiting thread cannot change state); only the return value is, because
// applications rely on the serial-thread flag (§3.2.1).
func (t *Thread) barrierWait(addr uint64) (uint64, error) {
	if err := t.intercept(); err != nil {
		return 0, err
	}
	rt := t.rt
	s, err := rt.varFor(addr)
	if err != nil {
		return 0, err
	}
	skipEntry := t.resumeBlock.kind == bkBarrier && t.resumeBlock.vaddr == addr
	if skipEntry {
		t.resumeBlock = blockInfo{}
	}

	var recorded *record.Event
	if rt.phaseIs(phReplay) {
		ev, err := t.nextReplayEvent()
		if err != nil {
			return 0, err
		}
		if ev != nil {
			if !record.Matches(ev, record.KBarrier, s.addr, 0) {
				return 0, t.diverge(record.KBarrier, s.addr, ev)
			}
			recorded = ev
		}
	}

	s.mu.Lock()
	if s.parties == 0 {
		s.mu.Unlock()
		return 0, fmt.Errorf("core: wait on uninitialized barrier %#x", addr)
	}
	myGen := s.gen
	released := false
	serial := uint64(0)
	if !skipEntry {
		s.arrived++
	}
	// Arrival publishes the thread's pre-barrier work; under s.mu, so every
	// arrival of a generation is observed before its release.
	rt.notifySync(t.id, SyncBarrierArrive, s.addr)
	if s.arrived == s.parties {
		s.arrived = 0
		s.gen++
		serial = 1
		released = true
		// Release and the serial thread's departure stay in the same
		// critical section as its arrival: observers see arrivals* →
		// release → departures, with no later-generation arrival in
		// between.
		rt.notifySync(t.id, SyncBarrierRelease, s.addr)
		rt.notifySync(t.id, SyncBarrierDepart, s.addr)
		s.sleepers.wakeAll(rt)
	}
	s.mu.Unlock()
	if !released {
		t.block = blockInfo{kind: bkBarrier, vaddr: addr}
		if err := t.barrierSleep(s, myGen); err != nil {
			return 0, err
		}
		t.block = blockInfo{}
	}

	if recorded != nil {
		t.list.Advance()
		return recorded.Ret, nil
	}
	t.appendEvent(record.Event{Kind: record.KBarrier, Var: s.addr, Ret: serial, Pos: -1})
	return serial, nil
}

func (t *Thread) barrierSleep(s *syncVar, myGen int64) error {
	rt := t.rt
	for {
		switch rt.phase() {
		case phRollback:
			return interp.ErrUnwind
		case phShutdown:
			return errShutdown
		}
		s.mu.Lock()
		if s.gen != myGen {
			// Departure is observed under s.mu: sync callbacks for one
			// variable are serialized in their true order.
			rt.notifySync(t.id, SyncBarrierDepart, s.addr)
			s.mu.Unlock()
			return nil
		}
		s.sleepers.add(t)
		s.mu.Unlock()
		t.park(tsBlocked, waitInfo{kind: wkBarrier, s: s})
	}
}

// threadCreate implements thread_create. Creations are serialized under a
// global lock and ordered on the creation pseudo-variable, which makes
// thread IDs, stack slots, and heap assignment deterministic (§2.2.4,
// §3.5.1). During replay the recorded event releases the kept-alive child
// instead of spawning a new goroutine.
func (t *Thread) threadCreate(fn int64, arg uint64) (uint64, error) {
	if err := t.intercept(); err != nil {
		return 0, err
	}
	rt := t.rt
	cv := rt.createVar
	if fn < 0 || fn >= int64(len(rt.mod.Funcs)) {
		return 0, fmt.Errorf("core: thread_create of invalid function %d", fn)
	}
	if rt.phaseIs(phReplay) {
		ev, err := t.nextReplayEvent()
		if err != nil {
			return 0, err
		}
		if ev != nil {
			if !record.Matches(ev, record.KCreate, cv.addr, 0) {
				return 0, t.diverge(record.KCreate, cv.addr, ev)
			}
			if err := t.waitTurn(cv, ev.Pos); err != nil {
				return 0, err
			}
			child := rt.thread(int32(ev.Aux))
			if child == nil || child.entryFn != int(fn) {
				return 0, t.diverge(record.KCreate, cv.addr, ev)
			}
			// The child goroutine is alive in embryo state; release it to
			// run its body from the start (§3.5.1: actual creation skipped,
			// same ID and stack guaranteed). Mark it running before the
			// hand-off: a child with an unprocessed start message must not
			// look quiescent, or a stop/rollback racing the release could
			// restore state while the child starts executing against it.
			child.entryArg = arg
			// Before the hand-off, so the creation is observed before any of
			// the child's own callbacks.
			rt.notifyThreadCreate(t.id, child.id)
			child.setState(tsRunning)
			child.startCh <- startMsg{kind: smStart}
			t.list.Advance()
			cv.advanceTurn(rt)
			return uint64(child.id), nil
		}
	}
	rt.createMu.Lock()
	child, err := rt.newThread(int(fn), arg, true)
	if err != nil {
		rt.createMu.Unlock()
		return 0, err
	}
	pos := rt.appendVar(cv, t.id)
	rt.createMu.Unlock()
	t.appendEvent(record.Event{Kind: record.KCreate, Var: cv.addr, Aux: int64(child.id), Pos: pos})
	rt.notifyThreadCreate(t.id, child.id)
	go child.trampoline()
	// Running-before-release, as in the replay arm: quiescence must not be
	// observable between the hand-off and the child's first instruction.
	child.setState(tsRunning)
	child.startCh <- startMsg{kind: smStart}
	return uint64(child.id), nil
}

// threadJoin implements thread_join: the joiner waits for the joinee's exit
// and the join completion is recorded for divergence checking. The joinee
// remains alive until the next epoch boundary (§3.2.1).
func (t *Thread) threadJoin(tid uint64) (uint64, error) {
	if err := t.intercept(); err != nil {
		return 0, err
	}
	rt := t.rt
	child := rt.thread(int32(tid))
	if child == nil || child == t {
		return 0, fmt.Errorf("core: join of invalid thread %d", tid)
	}
	if rt.phaseIs(phReplay) {
		ev, err := t.nextReplayEvent()
		if err != nil {
			return 0, err
		}
		if ev != nil {
			if !record.Matches(ev, record.KJoin, 0, 0) || ev.Aux != int64(tid) {
				return 0, t.diverge(record.KJoin, 0, ev)
			}
			if err := t.waitExit(child); err != nil {
				return 0, err
			}
			child.joined = true
			t.list.Advance()
			rt.notifyThreadJoin(t.id, child.id)
			return child.exitVal, nil
		}
	}
	if child.joined {
		return 0, fmt.Errorf("core: double join of thread %d", tid)
	}
	if err := t.waitExit(child); err != nil {
		return 0, err
	}
	child.joined = true
	t.appendEvent(record.Event{Kind: record.KJoin, Aux: int64(tid), Ret: child.exitVal, Pos: -1})
	rt.notifyThreadJoin(t.id, child.id)
	return child.exitVal, nil
}

func (t *Thread) waitExit(child *Thread) error {
	rt := t.rt
	for {
		switch rt.phase() {
		case phRollback:
			return interp.ErrUnwind
		case phShutdown:
			return errShutdown
		}
		child.exitMu.Lock()
		if child.state.Load() == tsExited {
			child.exitMu.Unlock()
			return nil
		}
		child.joiners.add(t)
		child.exitMu.Unlock()
		t.park(tsBlocked, waitInfo{kind: wkJoin, on: child})
	}
}
