package mem

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

// model is the flat reference: what the address space held before it was
// paged — one byte slice per segment, copied whole for a snapshot.
type model [numSegs][]byte

func newModel(lens [numSegs]int) model {
	var md model
	for seg, n := range lens {
		md[seg] = make([]byte, n)
	}
	return md
}

func (md model) clone() model {
	var out model
	for seg := range md {
		out[seg] = bytes.Clone(md[seg])
	}
	return out
}

// checkLive compares live memory, read through the load path, to the model.
func checkLive(t *testing.T, what string, m *Memory, md model) {
	t.Helper()
	for seg := range md {
		got, err := m.ReadBytes(segBase[seg], len(md[seg]))
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if d := DiffAddrs(got, md[seg], segBase[seg], 4); len(d) != 0 {
			t.Fatalf("%s: live segment %d differs from the model at %#x", what, seg, d)
		}
	}
}

func checkSnapshot(t *testing.T, what string, s *Snapshot, md model) {
	t.Helper()
	for seg := range md {
		if d := DiffAddrs(s.flat(seg), md[seg], segBase[seg], 4); len(d) != 0 {
			t.Fatalf("%s: snapshot segment %d differs from the model at %#x", what, seg, d)
		}
	}
}

// TestConcurrentStoresLoseNoDirtyMark: four goroutines store to distinct
// words of the same eight pages, racing on each page's first touch of the
// round; the snapshot taken afterwards must hold every word. A lost mark
// shows as a stale page. Race-free at the Go level (distinct words; the
// flags are atomics), so it runs under -race — `-race -count=200` is how CI's
// race job and the issue's acceptance exercise it.
func TestConcurrentStoresLoseNoDirtyMark(t *testing.T) {
	const (
		writers = 4
		pages   = 8
		words   = pageSize / 8
	)
	// A small heap keeps the flat comparison cheap under the race detector.
	m := New(Config{GlobalSize: pageSize, HeapSize: 16 * pageSize, StackSlot: pageSize, MaxThreads: 1})
	md := newModel(m.base.lens)
	base := uint64(5 * pageSize) // heap pages 5..12
	for round := uint64(1); round <= 10; round++ {
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < writers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				// Page-major so all four writers reach each page together.
				for p := 0; p < pages; p++ {
					for w := g; w < words; w += writers * 16 {
						off := base + uint64(p*pageSize+w*8)
						if err := m.Store64(HeapBase+off, round<<32|off); err != nil {
							t.Error(err)
							return
						}
					}
				}
			}(g)
		}
		close(start)
		wg.Wait()
		for g := 0; g < writers; g++ {
			for p := 0; p < pages; p++ {
				for w := g; w < words; w += writers * 16 {
					off := base + uint64(p*pageSize+w*8)
					v := round<<32 | off
					for b := 0; b < 8; b++ {
						md[segHeap][off+uint64(b)] = byte(v >> (8 * b))
					}
				}
			}
		}
		s := m.Snapshot()
		if s.PagesCopied() != pages {
			t.Fatalf("round %d: snapshot copied %d pages, %d were stored to", round, s.PagesCopied(), pages)
		}
		checkSnapshot(t, "after concurrent stores", s, md)
	}
}

// TestMemoryAgainstFlatModel drives a random sequence of every store
// primitive, snapshots, and restores of any earlier snapshot against the
// flat model, and after every step checks live memory and every snapshot
// ever taken: a snapshot — restored from, older, or newer — never changes
// when memory is written afterwards, and Restore is correct from any state.
func TestMemoryAgainstFlatModel(t *testing.T) {
	for _, seed := range []int64{1, 2, 24} {
		rng := rand.New(rand.NewSource(seed))
		m := New(smallConfig())
		md := newModel(m.base.lens)
		type kept struct {
			s  *Snapshot
			md model
		}
		var snaps []kept

		// span picks a segment and an in-bounds [off, off+n) inside it.
		span := func(maxLen int) (seg, off, n int) {
			seg = rng.Intn(numSegs)
			n = 1 + rng.Intn(min(maxLen, len(md[seg])))
			off = rng.Intn(len(md[seg]) - n + 1)
			return
		}
		put64 := func(seg, off int, v uint64) {
			for b := 0; b < 8; b++ {
				md[seg][off+b] = byte(v >> (8 * b))
			}
		}
		get64 := func(seg, off int) (v uint64) {
			for b := 0; b < 8; b++ {
				v |= uint64(md[seg][off+b]) << (8 * b)
			}
			return
		}

		for step := 0; step < 600; step++ {
			var err error
			op := rng.Intn(12)
			switch op {
			case 0:
				seg, off, _ := span(1)
				v := rng.Uint64()
				err = m.Store8(segBase[seg]+uint64(off), v)
				md[seg][off] = byte(v)
			case 1:
				seg, off, _ := span(8)
				off = min(off, len(md[seg])-8)
				v := rng.Uint64()
				err = m.Store64(segBase[seg]+uint64(off), v)
				put64(seg, off, v)
			case 2:
				seg, off, n := span(6000) // up to three pages
				b := make([]byte, n)
				rng.Read(b)
				err = m.WriteBytes(segBase[seg]+uint64(off), b)
				copy(md[seg][off:], b)
			case 3:
				seg, off, n := span(6000)
				v := byte(rng.Intn(3)) // often zero: pages go back to all-zero
				err = m.Memset(segBase[seg]+uint64(off), v, n)
				for i := off; i < off+n; i++ {
					md[seg][i] = v
				}
			case 4:
				// Across segments, so source and destination never overlap.
				dseg, doff, n := span(2000)
				sseg := (dseg + 1 + rng.Intn(numSegs-1)) % numSegs
				n = min(n, len(md[sseg]))
				soff := rng.Intn(len(md[sseg]) - n + 1)
				err = m.Memcpy(segBase[dseg]+uint64(doff), segBase[sseg]+uint64(soff), n)
				copy(md[dseg][doff:doff+n], md[sseg][soff:soff+n])
			case 5:
				seg, off, _ := span(8)
				off = min(off, len(md[seg])-8)
				addr := segBase[seg] + uint64(off)
				old, v := get64(seg, off), rng.Uint64()
				switch rng.Intn(4) {
				case 0:
					err = m.AtomicStore64(addr, v)
					put64(seg, off, v)
				case 1:
					_, err = m.AtomicAdd64(addr, v)
					put64(seg, off, old+v)
				case 2:
					var got uint64
					got, err = m.AtomicXchg64(addr, v)
					if got != old {
						t.Fatalf("seed %d step %d: xchg returned %#x, model held %#x", seed, step, got, old)
					}
					put64(seg, off, v)
				case 3:
					expect := old
					if rng.Intn(2) == 0 {
						expect++ // a failing CAS stores nothing
					}
					var ok uint64
					ok, err = m.AtomicCAS64(addr, expect, v)
					if (ok == 1) != (expect == old) {
						t.Fatalf("seed %d step %d: CAS outcome %d", seed, step, ok)
					}
					if ok == 1 {
						put64(seg, off, v)
					}
				}
			case 6, 7:
				snaps = append(snaps, kept{m.Snapshot(), md.clone()})
			case 8, 9:
				if len(snaps) == 0 {
					continue
				}
				k := snaps[rng.Intn(len(snaps))]
				m.Restore(k.s)
				md = k.md.clone()
			case 10:
				// A snapshot folded elsewhere and restored into this memory:
				// what an offline segment replay does with a trace's checkpoint.
				if len(snaps) == 0 {
					continue
				}
				k := snaps[rng.Intn(len(snaps))]
				delta, derr := AppendSnapshotDelta(nil, nil, k.s)
				if derr != nil {
					t.Fatal(derr)
				}
				folded, derr := ApplySnapshotDelta(nil, delta)
				if derr != nil {
					t.Fatal(derr)
				}
				m.Restore(folded)
				md = k.md.clone()
				snaps = append(snaps, kept{folded, md.clone()})
			case 11:
				// A fresh address space restored from this one's snapshot, then
				// written: the two memories share pages and must not share writes.
				if len(snaps) == 0 {
					continue
				}
				k := snaps[rng.Intn(len(snaps))]
				other := New(smallConfig())
				other.Restore(k.s)
				checkLive(t, "second memory after restore", other, k.md)
				if err := other.Memset(HeapBase, 0x77, 9000); err != nil {
					t.Fatal(err)
				}
				other.Snapshot()
			}
			if err != nil {
				t.Fatalf("seed %d step %d op %d: %v", seed, step, op, err)
			}
			checkLive(t, "live", m, md)
			for _, k := range snaps {
				checkSnapshot(t, "retained snapshot", k.s, k.md)
			}
			if len(snaps) > 12 {
				snaps = snaps[len(snaps)-8:]
			}
		}
		// Equal and DiffCount agree with the models across every retained pair.
		for _, a := range snaps {
			for _, b := range snaps {
				want := 0
				for seg := range a.md {
					want += DiffBytes(a.md[seg], b.md[seg])
				}
				if got := a.s.DiffCount(b.s); got != want || a.s.Equal(b.s) != (want == 0) {
					t.Fatalf("seed %d: DiffCount %d, Equal %v; models differ in %d bytes", seed, got, a.s.Equal(b.s), want)
				}
			}
		}
	}
}

// TestRestoreGeometryMismatchPanics: restoring a snapshot of another
// geometry is a caller bug (core checks geometry before it primes a
// runtime); it must not silently restore a prefix.
func TestRestoreGeometryMismatchPanics(t *testing.T) {
	s := New(smallConfig()).Snapshot()
	defer func() {
		if recover() == nil {
			t.Fatal("Restore across geometries did not panic")
		}
	}()
	testMemory(t).Restore(s)
}
