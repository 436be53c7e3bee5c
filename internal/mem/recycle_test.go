package mem

import (
	"errors"
	"runtime"
	"testing"
)

// recycleCfg is a small geometry with a globals segment that does not end on
// a page edge and stacks spanning several slots.
var recycleCfg = Config{
	GlobalSize: 3*pageSize + 100,
	HeapSize:   8 * pageSize,
	StackSlot:  2 * pageSize,
	MaxThreads: 3,
}

// emptyFreeLists drops every spare so a test sees only the spaces it
// released itself.
func emptyFreeLists(t *testing.T) {
	t.Helper()
	recycler.Lock()
	defer recycler.Unlock()
	for _, g := range recycler.geoms {
		g.spares = nil
	}
	recycler.spares = 0
}

func spareCount() int {
	recycler.Lock()
	defer recycler.Unlock()
	return recycler.spares
}

func mustStore(t *testing.T, m *Memory, addr, v uint64) {
	t.Helper()
	if err := m.Store64(addr, v); err != nil {
		t.Fatal(err)
	}
}

// TestReleaseHandsBackZeroedStorage gives a space a history — stores in all
// three segments, a snapshot, more stores and a snapshot, more stores, a
// Restore to the older snapshot, stores the next snapshot never saw and an
// armed watchpoint — and checks that the next New of the same Config gets
// the same storage back in the state of a fresh space: every byte zero,
// nothing for the next Snapshot to copy, no watchpoint armed.
func TestReleaseHandsBackZeroedStorage(t *testing.T) {
	emptyFreeLists(t)
	m := New(recycleCfg)
	gEnd := GlobalBase + uint64(recycleCfg.GlobalSize) - 8
	sEnd := StackBase + uint64(recycleCfg.StackSlot)*uint64(recycleCfg.MaxThreads) - 8
	mustStore(t, m, GlobalBase, 1)
	mustStore(t, m, HeapBase+3*pageSize, 2)
	mustStore(t, m, StackBase+pageSize, 3)
	older := m.Snapshot()
	mustStore(t, m, gEnd, 4)
	mustStore(t, m, HeapBase+7*pageSize+8, 5)
	mustStore(t, m, sEnd, 6)
	m.Snapshot()
	mustStore(t, m, HeapBase, 7)
	m.Restore(older)
	mustStore(t, m, HeapBase+5*pageSize, 8)
	if err := m.Memset(StackBase+2*pageSize, 0xff, pageSize); err != nil {
		t.Fatal(err)
	}
	if err := m.ArmWatchpoint(HeapBase+5*pageSize, 8); err != nil {
		t.Fatal(err)
	}
	hits := 0
	m.SetWatchHandler(func(WatchHit) { hits++ })
	heap0, stacks0 := &m.heap[0], &m.stacks[0]

	m.Release()
	if spareCount() != 1 {
		t.Fatalf("free list holds %d spares after one Release, want 1", spareCount())
	}
	m.Release() // a second Release is a no-op
	if spareCount() != 1 {
		t.Fatalf("second Release changed the free list to %d spares", spareCount())
	}

	n := New(recycleCfg)
	if &n.heap[0] != heap0 || &n.stacks[0] != stacks0 {
		t.Fatal("New did not reuse the released storage; the checks below would prove nothing")
	}
	for _, seg := range []struct {
		base uint64
		size int
	}{
		{GlobalBase, int(recycleCfg.GlobalSize)},
		{HeapBase, int(recycleCfg.HeapSize)},
		{StackBase, int(recycleCfg.StackSlot) * recycleCfg.MaxThreads},
	} {
		b, err := n.ReadBytes(seg.base, seg.size)
		if err != nil {
			t.Fatal(err)
		}
		for i, x := range b {
			if x != 0 {
				t.Fatalf("recycled byte %#x reads %#x, want 0", seg.base+uint64(i), x)
			}
		}
	}
	if s := n.Snapshot(); s.PagesCopied() != 0 {
		t.Fatalf("first Snapshot of a recycled space copied %d pages, want 0", s.PagesCopied())
	}
	if w := n.Watchpoints(); len(w) != 0 {
		t.Fatalf("recycled space has watchpoints armed: %v", w)
	}
	mustStore(t, n, HeapBase+5*pageSize, 9)
	if hits != 0 {
		t.Fatalf("a store to the recycled space fired the old watch handler %d times", hits)
	}
}

// TestReleasedMemoryFaults: after Release the Memory holds no segments, so
// every access is a *Fault rather than a read or write of storage another
// runtime now owns.
func TestReleasedMemoryFaults(t *testing.T) {
	m := New(recycleCfg)
	mustStore(t, m, HeapBase, 42)
	m.Release()
	var f *Fault
	if _, err := m.Load64(HeapBase); !errors.As(err, &f) {
		t.Fatalf("load after Release: got %v, want *Fault", err)
	}
	if err := m.Store64(GlobalBase, 1); !errors.As(err, &f) {
		t.Fatalf("store after Release: got %v, want *Fault", err)
	}
	if _, err := m.ReadBytes(StackBase, 8); !errors.As(err, &f) {
		t.Fatalf("read after Release: got %v, want *Fault", err)
	}
	if m.Valid(HeapBase, 1) {
		t.Fatal("a released space still reports mapped memory")
	}
	if m.Config() != recycleCfg {
		t.Fatalf("Config after Release = %+v", m.Config())
	}
}

// TestRecycleKeepsGeometriesApart: a released space only ever backs a New of
// the identical Config — not another size, and not another split of the
// same stack bytes into slots.
func TestRecycleKeepsGeometriesApart(t *testing.T) {
	emptyFreeLists(t)
	bigger := recycleCfg
	bigger.HeapSize *= 2
	resliced := recycleCfg
	resliced.StackSlot *= 3
	resliced.MaxThreads = 1 // the same stack bytes, one slot

	a := New(recycleCfg)
	heap0 := &a.heap[0]
	a.Release()
	for _, cfg := range []Config{bigger, resliced} {
		b := New(cfg)
		if &b.heap[0] == heap0 {
			t.Fatalf("New(%+v) received the storage of a %+v space", cfg, recycleCfg)
		}
		if !b.Valid(HeapBase+uint64(cfg.HeapSize)-8, 8) || b.Valid(HeapBase+uint64(cfg.HeapSize), 1) {
			t.Fatalf("New(%+v): heap is not %d bytes", cfg, cfg.HeapSize)
		}
		b.Release()
	}
	if c := New(recycleCfg); &c.heap[0] != heap0 {
		t.Fatal("the matching Config did not get its spare back")
	}
}

// TestFreeListBoundedByGOMAXPROCS: releasing more spaces than can run at once
// retains only GOMAXPROCS of them.
func TestFreeListBoundedByGOMAXPROCS(t *testing.T) {
	emptyFreeLists(t)
	limit := runtime.GOMAXPROCS(0)
	spaces := make([]*Memory, limit+2)
	for i := range spaces {
		spaces[i] = New(recycleCfg)
	}
	for _, m := range spaces {
		m.Release()
	}
	if got := spareCount(); got != limit {
		t.Fatalf("free list holds %d spares, want GOMAXPROCS = %d", got, limit)
	}
}
