package heap

import (
	"testing"
	"testing/quick"

	"repro/internal/mem"
)

func newDet(t testing.TB) (*Deterministic, *mem.Memory) {
	t.Helper()
	m := mem.New(mem.DefaultConfig())
	return NewDeterministic(m), m
}

func TestMallocReturnsDistinctAlignedAddresses(t *testing.T) {
	d, _ := newDet(t)
	d.AssignHeap(0)
	seen := map[uint64]bool{}
	for i := 0; i < 100; i++ {
		a := d.Malloc(0, 24)
		if a == 0 {
			t.Fatal("exhausted unexpectedly")
		}
		if a%8 != 0 {
			t.Fatalf("unaligned address %#x", a)
		}
		if seen[a] {
			t.Fatalf("address %#x returned twice", a)
		}
		seen[a] = true
	}
}

func TestFreeListReuseIsLIFO(t *testing.T) {
	d, _ := newDet(t)
	d.AssignHeap(0)
	a := d.Malloc(0, 32)
	b := d.Malloc(0, 32)
	d.Free(0, a)
	d.Free(0, b)
	// LIFO: b freed last is reused first (insert at head, §2.2.4).
	if got := d.Malloc(0, 32); got != b {
		t.Fatalf("reuse = %#x, want %#x", got, b)
	}
	if got := d.Malloc(0, 32); got != a {
		t.Fatalf("second reuse = %#x, want %#x", got, a)
	}
}

func TestCrossThreadFreeGoesToFreeingThread(t *testing.T) {
	d, _ := newDet(t)
	d.AssignHeap(0)
	d.AssignHeap(1)
	a := d.Malloc(0, 64) // allocated by thread 0
	d.Free(1, a)         // freed by thread 1
	// Thread 1's next allocation of the class reuses it; thread 0's does not.
	b := d.Malloc(1, 64)
	if b != a {
		t.Fatalf("freeing thread must own the object: got %#x, want %#x", b, a)
	}
}

func TestThreadsGetSeparateBlocks(t *testing.T) {
	d, _ := newDet(t)
	d.AssignHeap(0)
	d.AssignHeap(1)
	a := d.Malloc(0, 16)
	b := d.Malloc(1, 16)
	// Different per-thread heaps fetch different super-heap blocks.
	if a/BlockSize == b/BlockSize {
		t.Fatalf("threads share a block: %#x %#x", a, b)
	}
}

func TestDeterministicLayoutAcrossRuns(t *testing.T) {
	// Same allocation program order → identical addresses, with no recording
	// of allocations. This is the §2.2.4 property.
	run := func() []uint64 {
		m := mem.New(mem.DefaultConfig())
		d := NewDeterministic(m)
		d.AssignHeap(0)
		d.AssignHeap(1)
		var addrs []uint64
		for i := 0; i < 50; i++ {
			addrs = append(addrs, d.Malloc(0, int64(16+i)))
			addrs = append(addrs, d.Malloc(1, int64(8*i+1)))
			if i%3 == 2 {
				d.Free(0, addrs[len(addrs)-2])
			}
		}
		return addrs
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("layout diverged at %d: %#x vs %#x", i, a[i], b[i])
		}
	}
}

func TestLargeObject(t *testing.T) {
	d, _ := newDet(t)
	d.AssignHeap(0)
	a := d.Malloc(0, 100_000)
	if a == 0 {
		t.Fatal("large alloc failed")
	}
	objs := d.LiveObjects()
	if len(objs) != 1 || objs[0].Addr != a || objs[0].Class != -1 || objs[0].Size != 100_000 {
		t.Fatalf("large object metadata: %+v", objs)
	}
	if err := d.Free(0, a); err != nil {
		t.Fatal(err)
	}
}

func TestDoubleFreeRejected(t *testing.T) {
	d, _ := newDet(t)
	d.AssignHeap(0)
	a := d.Malloc(0, 16)
	if err := d.Free(0, a); err != nil {
		t.Fatal(err)
	}
	if err := d.Free(0, a); err == nil {
		t.Fatal("double free must be reported")
	}
}

func TestCallocZeroes(t *testing.T) {
	d, m := newDet(t)
	d.AssignHeap(0)
	a := d.Malloc(0, 32)
	m.Memset(a, 0xFF, 32)
	d.Free(0, a)
	b := d.Calloc(0, 4, 8) // reuses the dirty slot
	if b != a {
		t.Fatalf("expected reuse for this test, got %#x vs %#x", b, a)
	}
	data, _ := m.ReadBytes(b, 32)
	for i, v := range data {
		if v != 0 {
			t.Fatalf("calloc byte %d = %#x", i, v)
		}
	}
}

func TestCanaryDetectsOverflow(t *testing.T) {
	d, m := newDet(t)
	d.EnableCanaries()
	d.AssignHeap(0)
	a := d.Malloc(0, 20)
	b := d.Malloc(0, 20)
	_ = b
	if vs := d.ScanCanaries(); len(vs) != 0 {
		t.Fatalf("clean heap reported %v", vs)
	}
	// Overflow 3 bytes past the end of a.
	m.Memset(a+20, 0x11, 3)
	vs := d.ScanCanaries()
	if len(vs) != 1 {
		t.Fatalf("violations = %v", vs)
	}
	v := vs[0]
	if v.UseFree || v.Object.Addr != a || len(v.Addrs) != 3 || v.Addrs[0] != a+20 {
		t.Fatalf("violation = %+v", v)
	}
}

func TestCanaryAddrsCappedAtWatchpointLimit(t *testing.T) {
	d, m := newDet(t)
	d.EnableCanaries()
	d.AssignHeap(0)
	a := d.Malloc(0, 16) // class 16: slack is only the trailing canary word
	m.Memset(a+16, 0x22, 8)
	vs := d.ScanCanaries()
	if len(vs) != 1 || len(vs[0].Addrs) != mem.MaxWatchpoints {
		t.Fatalf("violations = %+v", vs)
	}
}

func TestQuarantineDetectsUseAfterFree(t *testing.T) {
	d, m := newDet(t)
	d.EnableQuarantine(1 << 20)
	d.AssignHeap(0)
	a := d.Malloc(0, 64)
	d.Free(0, a)
	// Write-after-free.
	m.Store64(a+8, 0xBAD)
	vs := d.ScanCanaries()
	if len(vs) != 1 || !vs[0].UseFree {
		t.Fatalf("violations = %+v", vs)
	}
	if vs[0].Addrs[0] != a+8 {
		t.Fatalf("corruption addr = %#x, want %#x", vs[0].Addrs[0], a+8)
	}
}

func TestQuarantineDelaysReuse(t *testing.T) {
	d, _ := newDet(t)
	d.EnableQuarantine(1 << 20)
	d.AssignHeap(0)
	a := d.Malloc(0, 64)
	d.Free(0, a)
	b := d.Malloc(0, 64)
	if b == a {
		t.Fatal("quarantined object must not be reused immediately")
	}
}

func TestQuarantineBudgetReleasesOldest(t *testing.T) {
	var violations []Violation
	d, m := newDet(t)
	d.EnableQuarantine(300) // tiny budget
	d.SetViolationHandler(func(v Violation) { violations = append(violations, v) })
	d.AssignHeap(0)
	a := d.Malloc(0, 64)
	d.Free(0, a)
	m.Store8(a, 0x77) // corrupt while quarantined
	// Push enough frees to evict a.
	for i := 0; i < 10; i++ {
		x := d.Malloc(0, 64)
		d.Free(0, x)
	}
	if len(violations) == 0 {
		t.Fatal("eviction must check canaries and report the corruption")
	}
	if !violations[0].UseFree || violations[0].Object.Addr != a {
		t.Fatalf("violation = %+v", violations[0])
	}
}

func TestSnapshotRestoreRewindsAllocator(t *testing.T) {
	d, _ := newDet(t)
	d.AssignHeap(0)
	a1 := d.Malloc(0, 40)
	snap := d.Snapshot()
	a2 := d.Malloc(0, 40)
	d.Free(0, a1)
	d.Restore(snap)
	// After restore, replaying the same ops yields the same addresses.
	b2 := d.Malloc(0, 40)
	if b2 != a2 {
		t.Fatalf("replayed alloc = %#x, want %#x", b2, a2)
	}
	if err := d.Free(0, a1); err != nil {
		t.Fatalf("a1 must be live again after restore: %v", err)
	}
}

func TestLibCASLRMakesLayoutsDiffer(t *testing.T) {
	m1 := mem.New(mem.DefaultConfig())
	m2 := mem.New(mem.DefaultConfig())
	l1 := NewLibC(m1, 1)
	l2 := NewLibC(m2, 2)
	a1 := l1.Malloc(0, 64)
	a2 := l2.Malloc(0, 64)
	if a1 == a2 {
		t.Fatal("different ASLR seeds must shift the arena")
	}
	// Same seed → same layout.
	m3 := mem.New(mem.DefaultConfig())
	l3 := NewLibC(m3, 1)
	if l3.Malloc(0, 64) != a1 {
		t.Fatal("same seed must reproduce the layout")
	}
}

func TestLibCSharedFreeList(t *testing.T) {
	m := mem.New(mem.DefaultConfig())
	l := NewLibC(m, 7)
	a := l.Malloc(0, 32)
	l.Free(0, a)
	// Another thread's allocation may take it — shared lists.
	if b := l.Malloc(1, 32); b != a {
		t.Fatalf("shared free list expected reuse: %#x vs %#x", b, a)
	}
}

func TestLibCSnapshotRestore(t *testing.T) {
	m := mem.New(mem.DefaultConfig())
	l := NewLibC(m, 3)
	a := l.Malloc(0, 16)
	snap := l.Snapshot()
	l.Free(0, a)
	l.Restore(snap)
	if err := l.Free(0, a); err != nil {
		t.Fatalf("object must be live after restore: %v", err)
	}
}

func TestClassFor(t *testing.T) {
	cases := map[int64]int{1: 0, 16: 0, 17: 1, 32: 1, 4096: 8, 4097: -1}
	for size, want := range cases {
		if got := classFor(size); got != want {
			t.Errorf("classFor(%d) = %d, want %d", size, got, want)
		}
	}
}

// Property: for arbitrary allocation sizes, the usable payload never
// overlaps another live object's slot.
func TestQuickNoOverlap(t *testing.T) {
	f := func(sizes []uint16) bool {
		m := mem.New(mem.DefaultConfig())
		d := NewDeterministic(m)
		d.AssignHeap(0)
		type span struct{ lo, hi uint64 }
		var spans []span
		for i, s := range sizes {
			if i >= 64 {
				break
			}
			size := int64(s%2000) + 1
			a := d.Malloc(0, size)
			if a == 0 {
				return true // arena exhausted is acceptable
			}
			for _, sp := range spans {
				if a < sp.hi && sp.lo < a+uint64(size) {
					return false
				}
			}
			spans = append(spans, span{a, a + uint64(size)})
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// Property: snapshot/restore followed by the identical allocation sequence
// reproduces identical addresses (the rollback invariant the replayer needs).
func TestQuickSnapshotReplayDeterminism(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) > 32 {
			sizes = sizes[:32]
		}
		m := mem.New(mem.DefaultConfig())
		d := NewDeterministic(m)
		d.AssignHeap(0)
		snap := d.Snapshot()
		var first []uint64
		for _, s := range sizes {
			first = append(first, d.Malloc(0, int64(s)+1))
		}
		d.Restore(snap)
		for i, s := range sizes {
			if d.Malloc(0, int64(s)+1) != first[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
