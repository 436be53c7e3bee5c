// Package record implements iReplayer's event log (§3.2, Figures 3 and 4):
// every synchronization and system-call event is appended to its thread's
// per-thread list and, for cross-thread-ordered events, to the corresponding
// per-variable list.
//
// The two-list structure removes any need for a global order: program order
// fixes the sequence within a thread, and each variable's list fixes the
// interleaving across threads. It also makes divergence checking O(1) — a
// replaying thread compares its next action against the head of its own
// per-thread list.
//
// Lists are preallocated (§3.2): appending never allocates, and exhausting a
// thread's entries is itself an epoch-end trigger.
package record

import (
	"fmt"
	"sync/atomic"
)

// Kind classifies a recorded event.
type Kind uint8

const (
	// KMutexLock is a successful mutex acquisition (ordered on the var).
	KMutexLock Kind = iota + 1
	// KMutexTry is a trylock; Ret holds 1/0. Only successful tries are
	// ordered on the var (§3.2.1).
	KMutexTry
	// KCondWake is a wake-up from a condition-variable wait, ordered on the
	// condition variable (the paper records wake-up order, not signal order).
	KCondWake
	// KBarrier is a barrier wait; only the return value is recorded, entry
	// order is not (§3.2.1).
	KBarrier
	// KCreate is a thread creation, ordered on the global creation variable;
	// Aux holds the child thread ID.
	KCreate
	// KJoin is a completed thread join; Aux holds the joinee thread ID.
	KJoin
	// KExit is a thread exit; Ret holds the exit value.
	KExit
	// KSyscall is a system call; Aux holds the syscall number, Ret the
	// recorded result, and Data any recorded payload (e.g. socket reads).
	KSyscall
	// KBlockFetch is a super-heap block fetch (§2.2.4), ordered on the
	// super-heap pseudo-variable.
	KBlockFetch
)

var kindNames = map[Kind]string{
	KMutexLock: "lock", KMutexTry: "trylock", KCondWake: "condwake",
	KBarrier: "barrier", KCreate: "create", KJoin: "join", KExit: "exit",
	KSyscall: "syscall", KBlockFetch: "blockfetch",
}

// String returns the kind's mnemonic.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Ordered reports whether events of this kind occupy a slot in a
// per-variable list.
func (k Kind) Ordered() bool {
	switch k {
	case KMutexLock, KCondWake, KCreate, KBlockFetch:
		return true
	}
	return false
}

// Event is one recorded action.
type Event struct {
	Kind Kind
	// Var identifies the synchronization variable (its VM address, or a
	// pseudo-address for the creation and super-heap variables). Zero for
	// unordered events such as syscalls.
	Var uint64
	// Aux carries kind-specific data (syscall number, child TID, ...).
	Aux int64
	// Ret is the recorded result returned verbatim during replay.
	Ret uint64
	// Pos is the event's slot in its per-variable list, -1 if unordered.
	Pos int32
	// Class carries the syscall's replay classification (a vsys.Class value)
	// so the replayer knows whether to re-issue the call (revocable) or
	// return the recorded result (recordable). Zero for non-syscall events.
	Class uint8
	// Data holds a recorded payload (socket read bytes, etc.).
	Data []byte
}

// ThreadList is one thread's per-thread event list with a record cursor and
// an independent replay cursor.
type ThreadList struct {
	events []Event
	n      int // recorded
	// r is the replay cursor. Only the owning thread moves it; the epoch
	// coordinator reads it (Replayed) once the runtime's running-thread count
	// is zero, and tools may read it at any time, hence atomic.
	r atomic.Int64
}

// NewThreadList preallocates capacity for cap events.
func NewThreadList(capacity int) *ThreadList {
	return &ThreadList{events: make([]Event, capacity)}
}

// Append records an event. full reports that this append consumed the final
// preallocated entry — the caller must close the epoch (§3.2).
func (l *ThreadList) Append(e Event) (full bool) {
	if l.n >= len(l.events) {
		// The runtime closes the epoch on full; appending past the end is a
		// logic error in the caller.
		panic("record: thread list overflow")
	}
	l.events[l.n] = e
	l.n++
	return l.n == len(l.events)
}

// Len returns the number of recorded events.
func (l *ThreadList) Len() int { return l.n }

// Cap returns the preallocated capacity.
func (l *ThreadList) Cap() int { return len(l.events) }

// Full reports whether every preallocated entry is used.
func (l *ThreadList) Full() bool { return l.n == len(l.events) }

// Peek returns the next event to replay, or nil when the list is exhausted.
func (l *ThreadList) Peek() *Event {
	r := int(l.r.Load())
	if r >= l.n {
		return nil
	}
	return &l.events[r]
}

// Advance consumes the event returned by Peek.
func (l *ThreadList) Advance() {
	if r := l.r.Load(); int(r) < l.n {
		l.r.Store(r + 1)
	}
}

// Replayed reports whether every recorded event has been replayed.
func (l *ThreadList) Replayed() bool { return int(l.r.Load()) >= l.n }

// ResetReplay rewinds the replay cursor for a fresh re-execution (§3.4).
func (l *ThreadList) ResetReplay() { l.r.Store(0) }

// Clear discards all events at an epoch boundary (§3.1 housekeeping).
func (l *ThreadList) Clear() {
	l.n = 0
	l.r.Store(0)
}

// Events returns the recorded events (read-only view for tools/tests).
func (l *ThreadList) Events() []Event { return l.events[:l.n] }

// VarList is one synchronization variable's cross-thread order list.
type VarList struct {
	order []int32 // thread IDs in acquisition/wake-up order
	n     int
	r     int // replay cursor
}

// NewVarList preallocates capacity for cap entries.
func NewVarList(capacity int) *VarList {
	return &VarList{order: make([]int32, capacity)}
}

// Append records that tid holds the next slot and returns that slot. full
// reports exhaustion (epoch-end trigger, as for thread lists).
func (l *VarList) Append(tid int32) (pos int32, full bool) {
	if l.n >= len(l.order) {
		panic("record: var list overflow")
	}
	l.order[l.n] = tid
	l.n++
	return int32(l.n - 1), l.n == len(l.order)
}

// Len returns the number of recorded slots.
func (l *VarList) Len() int { return l.n }

// Cap returns the preallocated capacity.
func (l *VarList) Cap() int { return len(l.order) }

// Full reports whether every preallocated entry is used.
func (l *VarList) Full() bool { return l.n == len(l.order) }

// Turn returns the replay cursor: the slot whose owner may proceed next.
func (l *VarList) Turn() int32 { return int32(l.r) }

// AdvanceTurn moves to the next slot after its owner performed its event.
func (l *VarList) AdvanceTurn() { l.r++ }

// Owner returns the thread ID recorded at slot pos.
func (l *VarList) Owner(pos int32) int32 { return l.order[pos] }

// ResetReplay rewinds the replay cursor.
func (l *VarList) ResetReplay() { l.r = 0 }

// Clear discards all slots at an epoch boundary.
func (l *VarList) Clear() { l.n, l.r = 0, 0 }

// Matches reports whether recorded event e corresponds to an attempted
// action, the core of divergence checking (§3.5.2): kind, variable, and — for
// syscalls — the syscall number must agree.
func Matches(e *Event, kind Kind, varAddr uint64, aux int64) bool {
	if e == nil || e.Kind != kind {
		return false
	}
	if e.Kind.Ordered() || kind == KMutexTry {
		if e.Var != varAddr {
			return false
		}
	}
	if kind == KSyscall && e.Aux != aux {
		return false
	}
	return true
}
