package record

import (
	"reflect"
	"testing"
)

// TestKindStringRoundTrip: every defined kind must map to a distinct
// mnemonic and parse back to itself — the property trace tooling relies on
// when it prints and filters events.
func TestKindStringRoundTrip(t *testing.T) {
	kinds := []Kind{KMutexLock, KMutexTry, KCondWake, KBarrier, KCreate,
		KJoin, KExit, KSyscall, KBlockFetch}
	seen := map[string]Kind{}
	for _, k := range kinds {
		s := k.String()
		if prev, dup := seen[s]; dup {
			t.Fatalf("kinds %v and %v share mnemonic %q", prev, k, s)
		}
		seen[s] = k
		back, ok := ParseKind(s)
		if !ok || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", s, back, ok, k)
		}
	}
	// Unknown kinds format distinctly and do not parse.
	if s := Kind(200).String(); s != "kind(200)" {
		t.Fatalf("unknown kind formats as %q", s)
	}
	if _, ok := ParseKind("kind(200)"); ok {
		t.Fatal("unknown mnemonic must not parse")
	}
	if _, ok := ParseKind(""); ok {
		t.Fatal("empty mnemonic must not parse")
	}
}

// TestVarListOrderingInvariants: the per-variable list must preserve
// append order, expose it stably through Order/Owner, and replay it
// slot-by-slot through the turn cursor — the cross-thread ordering contract
// the trace encoder and offline replayer both depend on.
func TestVarListOrderingInvariants(t *testing.T) {
	l := NewVarList(8)
	tids := []int32{3, 0, 2, 0, 1}
	for i, tid := range tids {
		pos, full := l.Append(tid)
		if pos != int32(i) {
			t.Fatalf("append %d returned slot %d, want %d", tid, pos, i)
		}
		if full {
			t.Fatalf("list reported full at %d of %d", i+1, l.Cap())
		}
	}
	if got := l.Order(); !reflect.DeepEqual(got, tids) {
		t.Fatalf("Order() = %v, want %v", got, tids)
	}
	for i, tid := range tids {
		if l.Owner(int32(i)) != tid {
			t.Fatalf("Owner(%d) = %d, want %d", i, l.Owner(int32(i)), tid)
		}
	}
	// Turn cursor replays slots in recorded order, independently of the
	// record cursor.
	for i := range tids {
		if l.Turn() != int32(i) {
			t.Fatalf("turn = %d, want %d", l.Turn(), i)
		}
		l.AdvanceTurn()
	}
	l.ResetReplay()
	if l.Turn() != 0 {
		t.Fatal("ResetReplay must rewind the turn cursor")
	}
	if got := l.Order(); !reflect.DeepEqual(got, tids) {
		t.Fatal("ResetReplay must not disturb recorded order")
	}
}

// TestLoadedListsStartAtBeginning: lists rebuilt from a trace must hold the
// events verbatim with both cursors rewound.
func TestLoadedListsStartAtBeginning(t *testing.T) {
	evs := []Event{
		{Kind: KMutexLock, Var: 0x10, Pos: 0},
		{Kind: KSyscall, Aux: 5, Ret: 9, Pos: -1},
		{Kind: KExit, Pos: -1},
	}
	l := LoadThreadList(evs)
	if l.Len() != len(evs) || l.Replayed() {
		t.Fatalf("loaded list len=%d replayed=%v", l.Len(), l.Replayed())
	}
	if !reflect.DeepEqual(l.Events(), evs) {
		t.Fatalf("loaded events = %+v", l.Events())
	}
	if e := l.Peek(); e == nil || e.Kind != KMutexLock {
		t.Fatalf("peek = %+v", e)
	}
	vl := LoadVarList([]int32{1, 0, 1})
	if vl.Len() != 3 || vl.Turn() != 0 || vl.Owner(2) != 1 {
		t.Fatalf("loaded var list len=%d turn=%d", vl.Len(), vl.Turn())
	}
}

// flatten folds epochs through a Flattener.
func flatten(epochs ...*EpochLog) (threads []ThreadLog, vars []VarLog, err error) {
	f := NewFlattener()
	for _, ep := range epochs {
		f.Add(ep)
	}
	fl, err := f.Flat()
	if err != nil {
		return nil, nil, err
	}
	return fl.Threads, fl.Vars, nil
}

// TestFlattenEpochsRebasesPositions: concatenating epochs must shift each
// ordered event's Pos by the length its variable's order list accumulated
// in earlier epochs, and must not mutate the inputs.
func TestFlattenEpochsRebasesPositions(t *testing.T) {
	ep1 := &EpochLog{
		Epoch: 1,
		Threads: []ThreadLog{
			{TID: 0, EntryFn: 0, Events: []Event{
				{Kind: KMutexLock, Var: 0x10, Pos: 0},
				{Kind: KCreate, Var: 1, Aux: 1, Pos: 0},
			}},
			{TID: 1, EntryFn: 2, Events: []Event{
				{Kind: KMutexLock, Var: 0x10, Pos: 1},
			}},
		},
		Vars: []VarLog{
			{Addr: 0x10, Order: []int32{0, 1}},
			{Addr: 1, Order: []int32{0}},
		},
	}
	ep2 := &EpochLog{
		Epoch: 2,
		Threads: []ThreadLog{
			{TID: 0, EntryFn: 0, Events: []Event{
				{Kind: KMutexLock, Var: 0x10, Pos: 0},
				{Kind: KExit, Pos: -1},
			}},
			{TID: 1, EntryFn: 2, Events: []Event{
				{Kind: KMutexLock, Var: 0x10, Pos: 1},
				{Kind: KExit, Pos: -1},
			}},
		},
		Vars: []VarLog{
			{Addr: 0x10, Order: []int32{1, 0}},
		},
	}
	threads, vars, err := flatten(ep1, ep2)
	if err != nil {
		t.Fatal(err)
	}
	if len(threads) != 2 || threads[0].TID != 0 || threads[1].TID != 1 {
		t.Fatalf("threads = %+v", threads)
	}
	// Thread 0's epoch-2 lock at per-epoch slot 0 rebases to global slot 2.
	if got := threads[0].Events[2]; got.Pos != 2 {
		t.Fatalf("rebased pos = %d, want 2 (%+v)", got.Pos, got)
	}
	if got := threads[1].Events[1]; got.Pos != 3 {
		t.Fatalf("rebased pos = %d, want 3 (%+v)", got.Pos, got)
	}
	// Unordered events keep Pos -1.
	if got := threads[0].Events[3]; got.Pos != -1 {
		t.Fatalf("exit pos = %d, want -1", got.Pos)
	}
	// Var orders concatenate in epoch order.
	if !reflect.DeepEqual(vars[0].Order, []int32{0, 1, 1, 0}) {
		t.Fatalf("var order = %v", vars[0].Order)
	}
	// Inputs untouched.
	if ep2.Threads[0].Events[0].Pos != 0 {
		t.Fatal("Flattener mutated its input")
	}

	// Inconsistent entry functions are rejected.
	bad := &EpochLog{Epoch: 2, Threads: []ThreadLog{{TID: 1, EntryFn: 5}}}
	if _, _, err := flatten(ep1, bad); err == nil {
		t.Fatal("entry-function mismatch accepted")
	}
	// So is a range with a missing epoch.
	ep3 := &EpochLog{Epoch: 3}
	if _, _, err := flatten(ep1, ep3); err == nil {
		t.Fatal("non-contiguous epoch accepted")
	}
}

func TestFlattenEpochsAtSparseTIDs(t *testing.T) {
	// Degenerate inputs a segment replay can legitimately produce.
	if threads, vars, err := flatten(); err != nil || len(threads) != 0 || len(vars) != 0 {
		t.Fatalf("empty input: threads=%v vars=%v err=%v", threads, vars, err)
	}
	empty := &EpochLog{Epoch: 4}
	if threads, _, err := flatten(empty); err != nil || len(threads) != 0 {
		t.Fatalf("threadless epoch: threads=%v err=%v", threads, err)
	}

	// Mid-trace segment: TIDs 3 and 7 survive from before the range
	// (threads 0-2 and 4-6 were reclaimed and leave permanent gaps), and 7
	// dies after the first epoch — its placeholder simply stops appearing.
	ep5 := &EpochLog{
		Epoch: 5,
		Threads: []ThreadLog{
			{TID: 3, EntryFn: 1, Events: []Event{{Kind: KMutexLock, Var: 0x20, Pos: 0}}},
			{TID: 7, EntryFn: 2, Events: []Event{
				{Kind: KMutexLock, Var: 0x20, Pos: 1},
				{Kind: KExit, Pos: -1},
			}},
		},
		Vars: []VarLog{{Addr: 0x20, Order: []int32{3, 7}}},
	}
	ep6 := &EpochLog{
		Epoch: 6,
		Threads: []ThreadLog{
			{TID: 3, EntryFn: 1, Events: []Event{{Kind: KMutexLock, Var: 0x20, Pos: 0}}},
		},
		Vars: []VarLog{{Addr: 0x20, Order: []int32{3}}},
	}
	threads, vars, err := flatten(ep5, ep6)
	if err != nil {
		t.Fatal(err)
	}
	if len(threads) != 2 || threads[0].TID != 3 || threads[1].TID != 7 {
		t.Fatalf("threads = %+v, want sparse TIDs 3 and 7", threads)
	}
	// Thread 3's epoch-6 lock rebases past epoch 5's two acquisitions.
	if got := threads[0].Events[1]; got.Pos != 2 {
		t.Fatalf("rebased pos = %d, want 2 (%+v)", got.Pos, got)
	}
	// The dead thread keeps only its epoch-5 events.
	if len(threads[1].Events) != 2 {
		t.Fatalf("dead thread events = %+v", threads[1].Events)
	}
	if !reflect.DeepEqual(vars[0].Order, []int32{3, 7, 3}) {
		t.Fatalf("var order = %v", vars[0].Order)
	}

	// A single-thread segment needs no ordering at all.
	solo := &EpochLog{Epoch: 9, Threads: []ThreadLog{
		{TID: 5, EntryFn: 3, Events: []Event{{Kind: KExit, Pos: -1}}},
	}}
	threads, _, err = flatten(solo)
	if err != nil || len(threads) != 1 || threads[0].TID != 5 {
		t.Fatalf("single thread: threads=%+v err=%v", threads, err)
	}

	// Corruption is still rejected: descending TIDs within an epoch, and a
	// thread whose entry function changes across epochs.
	unordered := &EpochLog{Epoch: 1, Threads: []ThreadLog{{TID: 7}, {TID: 3}}}
	if _, _, err := flatten(unordered); err == nil {
		t.Fatal("unordered thread IDs accepted")
	}
	turncoat := &EpochLog{Epoch: 6, Threads: []ThreadLog{{TID: 3, EntryFn: 9}}}
	if _, _, err := flatten(ep5, turncoat); err == nil {
		t.Fatal("entry-function change accepted")
	}
}
