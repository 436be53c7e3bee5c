package core

// The replay-observer surface: tools attach passive observers to a runtime
// and receive the execution's synchronization operations, thread lifecycle
// events, system calls, allocations, and (when requested) every data memory
// access — the hook surface the replay-time analysis subsystem
// (internal/analysis) and the §4 evidence-based detectors (internal/detect)
// share.
//
// Observers are passive: they may read runtime state but must not mutate VM
// memory, allocator state, or scheduling. Because an identical replay fixes
// the synchronization/syscall order and each thread's program order, the
// stream of callbacks an observer sees over a matched replay is itself
// deterministic — which is what makes replay-time analyses repeatable.
//
// Callbacks arrive on the vthread goroutine performing the operation, so
// observers shared across threads must synchronize internally. Callbacks for
// one synchronization variable are delivered in that variable's true
// acquisition order (they fire under the variable's shadow lock), and a
// thread's callbacks follow its program order; no global order across
// unrelated variables is implied.
//
// Rollback (an in-situ replay decision, or an offline divergence retry)
// re-executes observed operations. The rollback target is the current
// epoch's beginning in situ and the replayed range's start checkpoint
// offline (program start for a whole-trace replay, the segment's start for
// a segment replay). A StateObserver needs no rollback logic of its own: the
// runtime encodes it whenever it fixes a rollback target and decodes it back
// at every rollback. ResetObserver.OnReset is dispatched after state
// restoration and before threads resume, for observers that only discard
// the abandoned attempt's observations.

import (
	"fmt"

	"repro/internal/interp"
)

// Observer is the marker for anything attachable via Options.Observers or
// AttachObserver; the runtime discovers capabilities by interface assertion
// against the Sync/Thread/Alloc/Access/Syscall/Epoch/Reset/State observer
// interfaces below.
type Observer interface{}

// SyncOp classifies an observed synchronization operation.
type SyncOp uint8

const (
	// SyncAcquire: a mutex (or the mutex half of a cond wait) was acquired.
	SyncAcquire SyncOp = iota + 1
	// SyncRelease: a mutex was released.
	SyncRelease
	// SyncSignal: a condition variable was signalled or broadcast.
	SyncSignal
	// SyncWake: a condition-variable waiter consumed a wakeup.
	SyncWake
	// SyncBarrierArrive: a thread arrived at a barrier.
	SyncBarrierArrive
	// SyncBarrierRelease: the final arrival completed a barrier generation;
	// fired exactly once per generation, by the serial thread, in the same
	// critical section as its arrival — so every arrival of the generation
	// is observed before the release, and the release before any departure.
	SyncBarrierRelease
	// SyncBarrierDepart: a thread left a completed barrier.
	SyncBarrierDepart
)

var syncOpNames = [...]string{"", "acquire", "release", "signal", "wake",
	"barrier-arrive", "barrier-release", "barrier-depart"}

func (op SyncOp) String() string {
	if int(op) < len(syncOpNames) {
		return syncOpNames[op]
	}
	return "syncop(?)"
}

// SyncObserver receives synchronization operations on application
// synchronization variables. Runtime-internal pseudo-variables (thread
// creation serialization, super-heap block fetches) are filtered out: their
// ordering is an implementation artifact, not program synchronization, and
// treating them as happens-before edges would mask real races. Thread
// creation ordering is delivered through ThreadObserver instead.
type SyncObserver interface {
	OnSync(tid int32, op SyncOp, addr uint64)
}

// ThreadObserver receives thread lifecycle events. OnThreadCreate fires
// before the child executes its first instruction; OnThreadExit fires before
// any joiner can observe the exit; OnThreadJoin fires after the join
// completed — so the natural happens-before edges (parent→child,
// child-exit→joiner) hold between the callbacks themselves.
type ThreadObserver interface {
	OnThreadCreate(parent, child int32)
	OnThreadExit(tid int32)
	OnThreadJoin(joiner, joinee int32)
}

// AllocObserver receives heap allocation and free events with the acting
// thread's call stack (the allocation/free site).
type AllocObserver interface {
	OnAlloc(tid int32, addr uint64, size int64, stack []interp.StackEntry)
	OnFree(tid int32, addr uint64, stack []interp.StackEntry)
}

// AccessObserver receives every data memory access (loads, stores, memory
// intrinsics) performed by any vthread. stack symbolizes the accessing
// instruction lazily; call it only when the access is retained. Attaching an
// AccessObserver arms the per-CPU access hook, which costs one branch per
// memory operation on every thread.
type AccessObserver interface {
	OnAccess(tid int32, addr uint64, size int, write, atomic bool,
		stack func() []interp.StackEntry)
}

// SyscallObserver receives completed system calls (both recorded and
// replayed) with their result.
type SyscallObserver interface {
	OnSyscall(tid int32, num int64, ret uint64)
}

// EpochObserver participates in epoch-boundary decisions — the §4 tool
// surface. Both methods run while the world is quiescent. When several
// epoch observers (and the legacy Options hooks) disagree, the most severe
// decision wins (Abort > Replay > Proceed). Epoch observers are consulted
// only by the in-situ runtime; offline whole-program replay has no epoch
// boundaries to re-enact.
type EpochObserver interface {
	OnEpochEnd(rt *Runtime, info EpochEndInfo) Decision
	OnReplayMatched(rt *Runtime, attempts int) Decision
}

// ResetObserver is notified when a rollback discards execution: everything
// observed since the rollback target (the current epoch's beginning in
// situ, the replayed range's start checkpoint offline) is about to be
// re-executed.
type ResetObserver interface {
	OnReset()
}

// StateObserver is an observer whose accumulated state rolls back with the
// runtime. AppendState serializes the complete state; DecodeState returns
// the receiver to a serialized state and returns the unconsumed remainder,
// without retaining b. The runtime concatenates its state observers'
// encodings, in attach order, wherever it fixes a rollback target — program
// start, each epoch's beginning, an offline range's first attempt — and
// decodes them back at every rollback that follows execution, while every
// thread is parked and before OnReset. (An offline range's first attempt
// has run nothing since its capture, so it decodes nothing.) A re-executed
// epoch is thereby observed as if it never ran, with one allowance:
// DecodeState may keep monotone facts the receiver has already
// established, ones that re-execution would establish again but that no
// later hook would report. LeakDetector.DecodeState (internal/analysis) is
// the example: it keeps the leaks it holds, because the boundary scan that
// found them is not re-run after a matched replay. The same codec carries
// an analyzer across a segment boundary (trace.AnalyzeSegments).
type StateObserver interface {
	AppendState(b []byte) []byte
	DecodeState(b []byte) ([]byte, error)
}

// observerSet caches observers by capability so dispatch sites pay a single
// empty-slice check when no observer of that kind is attached.
type observerSet struct {
	sync    []SyncObserver
	thread  []ThreadObserver
	alloc   []AllocObserver
	access  []AccessObserver
	syscall []SyscallObserver
	epoch   []EpochObserver
	reset   []ResetObserver
	state   []StateObserver
}

func (s *observerSet) add(o Observer) {
	if x, ok := o.(SyncObserver); ok {
		s.sync = append(s.sync, x)
	}
	if x, ok := o.(ThreadObserver); ok {
		s.thread = append(s.thread, x)
	}
	if x, ok := o.(AllocObserver); ok {
		s.alloc = append(s.alloc, x)
	}
	if x, ok := o.(AccessObserver); ok {
		s.access = append(s.access, x)
	}
	if x, ok := o.(SyscallObserver); ok {
		s.syscall = append(s.syscall, x)
	}
	if x, ok := o.(EpochObserver); ok {
		s.epoch = append(s.epoch, x)
	}
	if x, ok := o.(ResetObserver); ok {
		s.reset = append(s.reset, x)
	}
	if x, ok := o.(StateObserver); ok {
		s.state = append(s.state, x)
	}
}

// AttachObserver registers an observer after construction; it must be called
// before Run or RunReplay. Threads that already exist (PrepareReplayFlatAt
// pre-creates the whole cast) are retrofitted with the access hook when o
// observes accesses.
func (rt *Runtime) AttachObserver(o Observer) {
	rt.obs.add(o)
	if len(rt.obs.access) > 0 {
		rt.mu.Lock()
		for _, t := range rt.threads {
			if t != nil {
				rt.armAccessHook(t)
			}
		}
		rt.mu.Unlock()
	}
}

// armAccessHook points t's CPU at the attached access observers.
func (rt *Runtime) armAccessHook(t *Thread) {
	cpu := t.cpu
	tid := t.id
	cpu.OnAccess = func(addr uint64, size int, write, atomic bool) {
		for _, o := range rt.obs.access {
			o.OnAccess(tid, addr, size, write, atomic, cpu.CallStack)
		}
	}
}

// --- dispatch helpers (each begins with a no-observer fast path) ---

func (rt *Runtime) notifySync(tid int32, op SyncOp, addr uint64) {
	if len(rt.obs.sync) == 0 || addr == createVarAddr || addr == superVarAddr {
		return
	}
	for _, o := range rt.obs.sync {
		o.OnSync(tid, op, addr)
	}
}

func (rt *Runtime) notifyThreadCreate(parent, child int32) {
	for _, o := range rt.obs.thread {
		o.OnThreadCreate(parent, child)
	}
}

func (rt *Runtime) notifyThreadExit(tid int32) {
	for _, o := range rt.obs.thread {
		o.OnThreadExit(tid)
	}
}

func (rt *Runtime) notifyThreadJoin(joiner, joinee int32) {
	for _, o := range rt.obs.thread {
		o.OnThreadJoin(joiner, joinee)
	}
}

func (rt *Runtime) notifyAlloc(t *Thread, addr uint64, size int64) {
	if len(rt.obs.alloc) == 0 {
		return
	}
	st := t.cpu.CallStack()
	for _, o := range rt.obs.alloc {
		o.OnAlloc(t.id, addr, size, st)
	}
}

func (rt *Runtime) notifyFree(t *Thread, addr uint64) {
	if len(rt.obs.alloc) == 0 {
		return
	}
	st := t.cpu.CallStack()
	for _, o := range rt.obs.alloc {
		o.OnFree(t.id, addr, st)
	}
}

func (rt *Runtime) notifySyscall(tid int32, num int64, ret uint64) {
	for _, o := range rt.obs.syscall {
		o.OnSyscall(tid, num, ret)
	}
}

// captureObserverState encodes the state observers at the rollback target
// just fixed. The world is quiescent and the previous encoding is dead, so
// its buffer is reused.
func (rt *Runtime) captureObserverState() {
	rt.obsState = rt.obsState[:0]
	for _, o := range rt.obs.state {
		rt.obsState = o.AppendState(rt.obsState)
	}
}

// resetObservers returns the observers to the rollback target: the state
// observers decode the target's encoding unless nothing has run since it
// was captured, then the reset observers discard the abandoned attempt.
func (rt *Runtime) resetObservers(decode bool) error {
	if decode {
		rest := rt.obsState
		var err error
		for _, o := range rt.obs.state {
			if rest, err = o.DecodeState(rest); err != nil {
				return fmt.Errorf("core: observer state at rollback: %w", err)
			}
		}
		if len(rest) != 0 {
			return fmt.Errorf("core: %d trailing bytes in observer state at rollback", len(rest))
		}
	}
	for _, o := range rt.obs.reset {
		o.OnReset()
	}
	return nil
}

// ThreadRoots describes one live thread's conservative GC roots: the live
// stack range and every frame's register file. Reachability-based analyses
// (the leak detector's heap scan) combine them with the globals segment.
// Call only while the world is quiescent (an epoch boundary or after the
// program completed); exited and unborn threads contribute no roots.
type ThreadRoots struct {
	TID int32
	// StackLow/StackHigh bound the live portion of the thread's stack slot
	// ([SP, slot end)).
	StackLow, StackHigh uint64
	// Regs are every activation record's register values, innermost last.
	Regs []uint64
}

// LiveThreadRoots captures the conservative roots of every thread that still
// has execution state.
func (rt *Runtime) LiveThreadRoots() []ThreadRoots {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var out []ThreadRoots
	for _, t := range rt.threads {
		if t == nil {
			continue
		}
		switch t.state.Load() {
		case tsDead, tsExited, tsEmbryo:
			continue
		}
		ctx := t.cpu.GetContext()
		base, size := rt.mem.StackRange(int(t.id))
		r := ThreadRoots{TID: t.id, StackLow: ctx.SP, StackHigh: base + uint64(size)}
		if r.StackLow < base {
			r.StackLow = base
		}
		for _, fr := range ctx.Frames {
			r.Regs = append(r.Regs, fr.Regs...)
		}
		out = append(out, r)
	}
	return out
}

// epochDecision combines the legacy Options hook with every epoch observer,
// keeping the most severe verdict.
func (rt *Runtime) epochDecision(legacy func() Decision, each func(EpochObserver) Decision) Decision {
	decision := Proceed
	if legacy != nil {
		decision = legacy()
	}
	for _, o := range rt.obs.epoch {
		if d := each(o); d > decision {
			decision = d
		}
	}
	return decision
}
