package record

import "fmt"

// EpochLog is one epoch's complete, finalized event record: every live
// thread's per-thread list and every touched variable's cross-thread order
// list, captured at the epoch boundary after any tool-driven replays have
// resolved. It is the unit the runtime hands to a trace sink and the unit
// the offline replayer consumes — deliberately a plain value type with only
// exported, encode-stable fields so that serialization layers (internal/
// trace) need no access to runtime internals.
type EpochLog struct {
	// Epoch is the 1-based epoch sequence number.
	Epoch int64
	// Reason is the StopReason that closed the epoch (stored as its integer
	// value so this package stays independent of internal/core).
	Reason int32
	// Threads holds one entry per live thread, in ascending TID order.
	Threads []ThreadLog
	// Vars holds one entry per variable with at least one ordered event this
	// epoch, in shadow-creation order.
	Vars []VarLog
}

// ThreadLog is one thread's slice of an epoch.
type ThreadLog struct {
	// TID is the thread's deterministic identifier.
	TID int32
	// EntryFn is the index of the thread's entry function — needed by the
	// offline replayer to pre-create the thread before its recorded creation
	// event releases it.
	EntryFn int32
	// Events are the thread's recorded events, in program order.
	Events []Event
}

// VarLog is one synchronization variable's slice of an epoch.
type VarLog struct {
	// Addr is the variable's VM address (or pseudo-address).
	Addr uint64
	// Order is the recorded acquisition/wake-up order as thread IDs.
	Order []int32
}

// EventCount returns the number of events across all threads of the epoch.
func (ep *EpochLog) EventCount() int {
	n := 0
	for i := range ep.Threads {
		n += len(ep.Threads[i].Events)
	}
	return n
}

// Flat is a flattened epoch range, suitable for a single replay pass: the
// per-thread lists concatenated in epoch order, each ordered event's Pos
// rebased by the length its variable's order list had accumulated in
// earlier epochs, plus the range's first sequence number, epoch count and
// final stop reason — everything a replay derives from an epoch slice.
// Thread IDs ascend but need not start at zero or be dense: threads
// reclaimed before a mid-trace range leave permanent gaps (replay from
// program start checks density itself). Consumers that stream epochs in
// bounded windows (the trace executor) build one incrementally through
// Flattener instead of pinning every decoded epoch frame at once.
type Flat struct {
	// Threads holds the concatenated per-thread lists, ascending TID.
	Threads []ThreadLog
	// Vars holds the rebased per-variable order lists, first-use order.
	Vars []VarLog
	// First is the first folded epoch's sequence number; the range covers
	// epochs First..First+Epochs-1.
	First int64
	// Epochs counts the epochs folded in.
	Epochs int64
	// Reason is the last folded epoch's StopReason integer.
	Reason int32
}

// Flattener incrementally builds a Flat from an epoch stream. It carries
// the per-variable rebase offsets across Add calls, so a caller can decode
// a window of epoch frames, fold it, and release it before fetching the
// next — decoded-frame lifetime becomes the window's, not the trace's.
// Errors are sticky and surface from Flat.
type Flattener struct {
	flat      Flat
	threadIdx map[int32]int
	varIdx    map[uint64]int
	err       error
}

// NewFlattener returns an empty Flattener.
func NewFlattener() *Flattener {
	return &Flattener{threadIdx: map[int32]int{}, varIdx: map[uint64]int{}}
}

// Add folds one more epoch into the flattened lists. Epochs must be added
// in trace order with consecutive sequence numbers; the input is not
// mutated (epoch logs may be cached by a trace store) and its events are
// copied.
func (f *Flattener) Add(ep *EpochLog) {
	if f.err != nil {
		return
	}
	if f.flat.Epochs == 0 {
		f.flat.First = ep.Epoch
	} else if want := f.flat.First + f.flat.Epochs; ep.Epoch != want {
		f.err = fmt.Errorf("record: epoch %d follows epoch %d in a flattened range", ep.Epoch, want-1)
		return
	}
	threads, vars := f.flat.Threads, f.flat.Vars
	// Per-epoch rebase offsets: the accumulated order length of each
	// variable before this epoch's events.
	offsets := map[uint64]int32{}
	for _, vl := range ep.Vars {
		i, ok := f.varIdx[vl.Addr]
		if !ok {
			i = len(vars)
			f.varIdx[vl.Addr] = i
			vars = append(vars, VarLog{Addr: vl.Addr})
		}
		offsets[vl.Addr] = int32(len(vars[i].Order))
		vars[i].Order = append(vars[i].Order, vl.Order...)
	}
	for _, tl := range ep.Threads {
		i, ok := f.threadIdx[tl.TID]
		if !ok {
			i = len(threads)
			f.threadIdx[tl.TID] = i
			threads = append(threads, ThreadLog{TID: tl.TID, EntryFn: tl.EntryFn})
		} else if threads[i].EntryFn != tl.EntryFn {
			f.err = fmt.Errorf(
				"record: thread %d changes entry function (%d vs %d) across epochs",
				tl.TID, threads[i].EntryFn, tl.EntryFn)
			return
		}
		for _, ev := range tl.Events {
			if ev.Pos >= 0 {
				ev.Pos += offsets[ev.Var]
			}
			threads[i].Events = append(threads[i].Events, ev)
		}
	}
	f.flat.Threads, f.flat.Vars = threads, vars
	f.flat.Epochs++
	f.flat.Reason = ep.Reason
}

// Flat validates thread ordering and returns the flattened range. The
// Flattener must not be reused afterwards.
func (f *Flattener) Flat() (*Flat, error) {
	if f.err != nil {
		return nil, f.err
	}
	threads := f.flat.Threads
	for i := 1; i < len(threads); i++ {
		if threads[i].TID <= threads[i-1].TID {
			// TIDs are allocated monotonically and epochs list threads in
			// ascending order, so first appearances are already sorted; a
			// violation means a corrupted log.
			return nil, fmt.Errorf("record: unordered thread IDs in epoch logs (%d after %d)",
				threads[i].TID, threads[i-1].TID)
		}
	}
	return &f.flat, nil
}

// LoadThreadList builds a ThreadList whose recorded contents are events and
// whose replay cursor is at the beginning — the offline replayer's
// counterpart of a rolled-back in-situ list. A small amount of spare
// capacity is kept so a post-replay append cannot overflow.
func LoadThreadList(events []Event) *ThreadList {
	l := &ThreadList{events: make([]Event, len(events)+16)}
	l.n = copy(l.events, events)
	return l
}

// LoadVarList builds a VarList whose recorded order is order, replay cursor
// at the beginning.
func LoadVarList(order []int32) *VarList {
	l := &VarList{order: make([]int32, len(order)+16)}
	l.n = copy(l.order, order)
	return l
}

// Order returns the recorded thread-ID order (read-only view).
func (l *VarList) Order() []int32 { return l.order[:l.n] }

// ParseKind inverts Kind.String for the mnemonic kinds. It scans kinds in
// numeric order rather than ranging over kindNames: map iteration order
// would make the answer depend on the iteration should two kinds ever share
// a mnemonic, and a duplicated name would then be a silent coin flip
// instead of a deterministic (lowest-kind) answer.
func ParseKind(s string) (Kind, bool) {
	for k := KMutexLock; k <= KBlockFetch; k++ {
		if kindNames[k] == s {
			return k, true
		}
	}
	return 0, false
}
