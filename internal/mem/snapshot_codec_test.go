package mem

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// smallConfig is a geometry no segment of which is a page multiple:
// 2048-byte globals inside one page, a 9000-byte heap ending 808 bytes into
// its third page, and five 1 KiB stack slots ending 1 KiB into their second.
func smallConfig() Config {
	return Config{GlobalSize: 2048, HeapSize: 9000, StackSlot: 1024, MaxThreads: 5}
}

func testMemory(t *testing.T) *Memory {
	t.Helper()
	return New(Config{GlobalSize: 4096, HeapSize: 8192, StackSlot: 1024, MaxThreads: 4})
}

// flat returns segment seg of s as one byte slice.
func (s *Snapshot) flat(seg int) []byte {
	out := make([]byte, 0, s.lens[seg])
	for i, p := range s.pages[seg] {
		out = append(out, p[:pageLen(s.lens[seg], i)]...)
	}
	return out
}

// --- reference encoder ------------------------------------------------------
//
// The byte-at-a-time encoder over flat images that wrote every trace before
// snapshots were paged. The wire format is defined as what it emits; the
// page-skipping, word-at-a-time encoder must reproduce it bit for bit.

func refAppendSnapshotDelta(b []byte, prev, cur *Snapshot) []byte {
	for _, n := range cur.lens {
		b = binary.AppendUvarint(b, uint64(n))
	}
	for seg := range cur.lens {
		var p []byte
		if prev != nil {
			p = prev.flat(seg)
		}
		b = refAppendSegDelta(b, p, cur.flat(seg))
	}
	return b
}

// xorAt returns cur[i] ^ prev[i], treating a short (or empty) prev as zero.
func xorAt(prev, cur []byte, i int) byte {
	if i < len(prev) {
		return cur[i] ^ prev[i]
	}
	return cur[i]
}

func refAppendSegDelta(b []byte, prev, cur []byte) []byte {
	i := 0
	for i < len(cur) {
		zs := i
		for i < len(cur) && xorAt(prev, cur, i) == 0 {
			i++
		}
		zeros := i - zs
		ls := i
		// A literal run extends until a maximal zero run of at least
		// minZeroRun begins (or the segment ends).
		for i < len(cur) {
			if xorAt(prev, cur, i) != 0 {
				i++
				continue
			}
			j := i
			for j < len(cur) && xorAt(prev, cur, j) == 0 {
				j++
			}
			if j-i >= minZeroRun || j == len(cur) {
				break
			}
			i = j
		}
		if zeros == 0 && i == ls {
			break // nothing left
		}
		b = binary.AppendUvarint(b, uint64(zeros))
		b = binary.AppendUvarint(b, uint64(i-ls))
		for k := ls; k < i; k++ {
			b = append(b, xorAt(prev, cur, k))
		}
	}
	return b
}

// checkDelta holds one (prev, cur) pair to the codec's contract: the bytes
// are the reference encoder's, folding them over prev gives cur back, and the
// encoder examined exactly the pages the pair does not share.
func checkDelta(t testing.TB, what string, prev, cur *Snapshot) []byte {
	t.Helper()
	e := deltaEncoder{}
	e.encode(prev, cur)
	if want := refAppendSnapshotDelta(nil, prev, cur); !bytes.Equal(e.b, want) {
		t.Fatalf("%s: encoder emitted %d bytes, reference %d:\n got %x\nwant %x",
			what, len(e.b), len(want), clip(e.b), clip(want))
	}
	api, err := AppendSnapshotDelta([]byte("pfx"), prev, cur)
	if err != nil || !bytes.Equal(api, append([]byte("pfx"), e.b...)) {
		t.Fatalf("%s: AppendSnapshotDelta disagrees with the encoder (err %v)", what, err)
	}
	unshared := 0
	for seg, table := range cur.pages {
		for i, c := range table {
			if c != prev.pageAt(seg, i) {
				unshared++
			}
		}
	}
	if e.pagesRead != unshared {
		t.Fatalf("%s: encoder read %d pages, the pair differs in %d page pointers", what, e.pagesRead, unshared)
	}
	got, err := ApplySnapshotDelta(prev, e.b)
	if err != nil {
		t.Fatalf("%s: apply: %v", what, err)
	}
	if !got.Equal(cur) || !cur.Equal(got) {
		t.Fatalf("%s: delta round-trip differs in %d bytes", what, got.DiffCount(cur))
	}
	for seg := range cur.lens {
		if !bytes.Equal(got.flat(seg), cur.flat(seg)) {
			t.Fatalf("%s: Equal passed but segment %d differs", what, seg)
		}
	}
	return e.b
}

func clip(b []byte) []byte {
	if len(b) > 96 {
		return b[:96]
	}
	return b
}

// poke XORs a non-zero value into the byte at offset off of segment seg, so
// the position differs from whatever any earlier snapshot held.
func poke(t testing.TB, m *Memory, seg int, off int) {
	t.Helper()
	addr := segBase[seg] + uint64(off)
	v, err := m.Load8(addr)
	if err != nil {
		t.Fatalf("poke %d+%d: %v", seg, off, err)
	}
	if err := m.Store8(addr, v^0xa5); err != nil {
		t.Fatal(err)
	}
}

// TestSnapshotDeltaMatchesReference is the seeded table of the differential
// codec test: each case is a write pattern applied between two snapshots,
// encoded as a keyframe of each side and as a chained delta.
func TestSnapshotDeltaMatchesReference(t *testing.T) {
	type pattern struct {
		name  string
		write func(t *testing.T, m *Memory)
	}
	// The reference walks 21 MiB a byte at a time per encode, so the default
	// geometry takes the cases where size matters: nothing, everything, and
	// a gap of each length across a page edge far from any segment end.
	onDefault := map[string]bool{"all-clean": true, "all-dirty": true, "gap7-across-edge": true, "gap8-across-edge": true}
	// A zero gap of `gap` XOR bytes at [g, g+gap) between two changed bytes.
	gapAt := func(seg, g, gap int) func(*testing.T, *Memory) {
		return func(t *testing.T, m *Memory) {
			poke(t, m, seg, g-1)
			poke(t, m, seg, g+gap)
		}
	}
	patterns := []pattern{
		{"all-clean", func(*testing.T, *Memory) {}},
		{"literal-ends-at-page", func(t *testing.T, m *Memory) {
			poke(t, m, segHeap, pageSize-2)
			poke(t, m, segHeap, pageSize-1)
		}},
		{"literal-starts-at-page", func(t *testing.T, m *Memory) { poke(t, m, segHeap, pageSize) }},
		{"literal-spans-page", func(t *testing.T, m *Memory) {
			if err := m.Memset(HeapBase+pageSize-5, 0x3c, 11); err != nil {
				t.Fatal(err)
			}
		}},
		{"first-and-last-byte", func(t *testing.T, m *Memory) {
			for seg, n := range m.base.lens {
				poke(t, m, seg, 0)
				poke(t, m, seg, n-1)
			}
		}},
		{"short-zero-tail", func(t *testing.T, m *Memory) {
			// Fewer than minZeroRun zeros between the last change and the
			// segment end: they are a trailing run, never literal bytes.
			for seg, n := range m.base.lens {
				poke(t, m, seg, n-1-3)
			}
		}},
	}
	for _, gap := range []int{minZeroRun - 1, minZeroRun} {
		for _, c := range []struct {
			where string
			g     int
		}{
			{"before-edge", pageSize - gap - 5},
			{"ends-at-edge", pageSize - gap},
			{"across-edge", pageSize - 3},
			{"starts-at-edge", pageSize},
			{"after-edge", pageSize + 2},
			{"across-second-edge", 2*pageSize - gap + 1},
		} {
			patterns = append(patterns, pattern{fmt.Sprintf("gap%d-%s", gap, c.where), gapAt(segHeap, c.g, gap)})
		}
		// The stacks of the small geometry end 1 KiB into their second page,
		// so this gap straddles the only page edge of a straddling segment.
		patterns = append(patterns, pattern{fmt.Sprintf("gap%d-stacks-edge", gap), gapAt(segStacks, pageSize-2, gap)})
	}
	patterns = append(patterns, pattern{"all-dirty", func(t *testing.T, m *Memory) {
		for seg, n := range m.base.lens {
			w, err := m.ReadBytes(segBase[seg], n)
			if err != nil {
				t.Fatal(err)
			}
			for i := range w {
				w[i] ^= byte(1 + i%255)
			}
			if err := m.WriteBytes(segBase[seg], w); err != nil {
				t.Fatal(err)
			}
		}
	}})

	geoms := []struct {
		name string
		cfg  Config
	}{{"small", smallConfig()}, {"default", DefaultConfig()}}
	for _, g := range geoms {
		for _, p := range patterns {
			g, p := g, p
			if g.name == "default" && !onDefault[p.name] {
				continue
			}
			t.Run(g.name+"/"+p.name, func(t *testing.T) {
				m := New(g.cfg)
				// A non-trivial starting image so chained deltas XOR against
				// something.
				rng := rand.New(rand.NewSource(3))
				for i := 0; i < 40; i++ {
					seg := rng.Intn(numSegs)
					poke(t, m, seg, rng.Intn(m.base.lens[seg]))
				}
				prev := m.Snapshot()
				p.write(t, m)
				cur := m.Snapshot()
				checkDelta(t, "keyframe", nil, cur)
				checkDelta(t, "chained", prev, cur)
				if g.name == "small" {
					checkDelta(t, "keyframe(prev)", nil, prev)
					checkDelta(t, "reverse", cur, prev)
				}
			})
		}
	}
}

// TestSnapshotDeltaChainReadsOnlyUnsharedPages: three successive snapshots,
// encoded as keyframe + two deltas, cost the pages each epoch stored to —
// counted by the encoder's page reader, not timed.
func TestSnapshotDeltaChainReadsOnlyUnsharedPages(t *testing.T) {
	m := New(DefaultConfig())
	total := 0
	for _, table := range m.base.pages {
		total += len(table)
	}
	if total != 5376 {
		t.Fatalf("default geometry has %d pages, the documented figure is 5376", total)
	}
	stamp := uint64(0)
	write := func(pages ...int) {
		stamp++
		for _, p := range pages {
			if err := m.Store64(HeapBase+uint64(p)*pageSize+24, stamp); err != nil {
				t.Fatal(err)
			}
		}
	}
	write(1, 2, 700)
	m.Store8(GlobalBase+9, 1)
	m.Store8(StackBase+65536, 1)
	s0 := m.Snapshot()
	write(2, 3)
	s1 := m.Snapshot()
	write(4095)
	m.Store64(HeapBase+2*pageSize-4, ^uint64(0)) // straddles pages 1 and 2
	s2 := m.Snapshot()
	for i, want := range []int{5, 2, 3} {
		s := []*Snapshot{s0, s1, s2}[i]
		if s.PagesCopied() != want {
			t.Fatalf("snapshot %d copied %d pages, want %d", i, s.PagesCopied(), want)
		}
	}
	var prev *Snapshot
	for i, s := range []*Snapshot{s0, s1, s2} {
		e := deltaEncoder{}
		e.encode(prev, s)
		if e.pagesRead != s.PagesCopied() {
			t.Fatalf("encoding snapshot %d read %d pages, the epoch dirtied %d", i, e.pagesRead, s.PagesCopied())
		}
		checkDelta(t, fmt.Sprintf("chain[%d]", i), prev, s)
		prev = s
	}
	// Folding the chain shares untouched pages with the step before.
	f0, err := ApplySnapshotDelta(nil, checkDelta(t, "k", nil, s0))
	if err != nil {
		t.Fatal(err)
	}
	f1, err := ApplySnapshotDelta(f0, checkDelta(t, "d", s0, s1))
	if err != nil {
		t.Fatal(err)
	}
	if f0.PagesCopied() != 5 || f1.PagesCopied() != 2 {
		t.Fatalf("fold copied %d then %d pages, want 5 then 2", f0.PagesCopied(), f1.PagesCopied())
	}
	if f1.pages[segHeap][1] != f0.pages[segHeap][1] || f1.pages[segHeap][5] != &zeroPage {
		t.Fatal("fold step did not share an untouched page")
	}
	if f1.pages[segHeap][2] == f0.pages[segHeap][2] {
		t.Fatal("fold step shared a page the delta rewrote")
	}
}

// fuzzOps drives a small address space from fuzz input: 4-byte records
// (op, offset lo, offset hi, value) that store, fill, or take a snapshot.
// Every snapshot is checked as a keyframe and against its predecessor.
func fuzzOps(t testing.TB, data []byte) {
	m := New(smallConfig())
	var prev *Snapshot
	snap := func() {
		cur := m.Snapshot()
		delta := checkDelta(t, "chained", prev, cur)
		checkDelta(t, "keyframe", nil, cur)
		// A damaged delta may decode to something else or fail; it must not
		// panic, and a success keeps the declared geometry.
		if len(data) > 0 && len(delta) > 0 {
			mut := append([]byte(nil), delta...)
			mut[int(data[0])%len(mut)] ^= data[len(data)-1] | 1
			if got, err := ApplySnapshotDelta(prev, mut); err == nil && got.lens != cur.lens {
				t.Fatalf("damaged delta decoded to geometry %v", got.lens)
			}
		}
		prev = cur
	}
	for ; len(data) >= 4; data = data[4:] {
		op, val := data[0], data[3]
		seg := int(op>>2) % numSegs
		n := m.base.lens[seg]
		off := int(binary.LittleEndian.Uint16(data[1:3])) % n
		addr := segBase[seg] + uint64(off)
		var err error
		switch op & 3 {
		case 0:
			err = m.Store8(addr, uint64(val))
		case 1:
			err = m.Memset(addr, val, min(n-off, 1+int(op>>4)))
		case 2:
			err = m.Memset(segBase[seg], val, n)
		case 3:
			snap()
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	snap()
}

func FuzzSnapshotDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{4, 0xff, 0x0f, 1, 4, 0x07, 0x10, 1, 3, 0, 0, 0}) // zero gap of 7 starting at the heap's first page edge
	f.Add([]byte{4, 0xff, 0x0f, 1, 4, 0x08, 0x10, 1, 3, 0, 0, 0}) // gap of 8
	f.Add([]byte{2, 0, 0, 9, 6, 0, 0, 9, 10, 0, 0, 9, 3, 0, 0, 0, 2, 0, 0, 0})
	f.Add([]byte{0x31, 0xf8, 0x0f, 7, 3, 0, 0, 0, 0x31, 0xf8, 0x0f, 0})
	f.Fuzz(func(t *testing.T, data []byte) { fuzzOps(t, data) })
}

// TestSnapshotDeltaRandomPatterns runs the fuzz body over seeded random
// inputs, so the differential check is part of every `go test`.
func TestSnapshotDeltaRandomPatterns(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for round := 0; round < 200; round++ {
		data := make([]byte, 4*(1+rng.Intn(60)))
		rng.Read(data)
		fuzzOps(t, data)
	}
}

// TestSnapshotDeltaRoundTrip: apply(append(prev, cur)) == cur, against both
// the zero base and a previous snapshot, over sparse and dense mutations.
func TestSnapshotDeltaRoundTrip(t *testing.T) {
	m := testMemory(t)
	rng := rand.New(rand.NewSource(1))

	var prev *Snapshot
	for round := 0; round < 5; round++ {
		// Mutate a mix of runs and scattered bytes across all segments.
		for i := 0; i < 64; i++ {
			base := []uint64{GlobalBase, HeapBase, StackBase}[rng.Intn(3)]
			off := uint64(rng.Intn(3000))
			m.Store8(base+off, uint64(rng.Intn(256)))
		}
		m.Memset(HeapBase+uint64(rng.Intn(2048)), byte(rng.Intn(256)), 512)

		cur := m.Snapshot()
		delta, err := AppendSnapshotDelta(nil, prev, cur)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ApplySnapshotDelta(prev, delta)
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if !got.Equal(cur) {
			t.Fatalf("round %d: delta round-trip differs in %d bytes", round, got.DiffCount(cur))
		}
		// Canonical: re-encoding the same pair is byte-identical.
		delta2, err := AppendSnapshotDelta(nil, prev, cur)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(delta, delta2) {
			t.Fatalf("round %d: delta encoding not canonical", round)
		}
		prev = cur
	}
}

// TestSnapshotDeltaCompresses: an unchanged snapshot encodes to a few bytes,
// not the address-space size.
func TestSnapshotDeltaCompresses(t *testing.T) {
	m := testMemory(t)
	m.Store64(HeapBase+128, 0xdeadbeef)
	s1 := m.Snapshot()
	s2 := m.Snapshot()
	delta, err := AppendSnapshotDelta(nil, s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	if len(delta) > 64 {
		t.Fatalf("identical snapshots encode to %d bytes", len(delta))
	}
}

// TestSnapshotDeltaRejectsCorruption: truncation, trailing bytes, geometry
// mismatch, and overflowing runs all fail loudly.
func TestSnapshotDeltaRejectsCorruption(t *testing.T) {
	m := testMemory(t)
	m.Store64(GlobalBase+8, 42)
	cur := m.Snapshot()
	delta, err := AppendSnapshotDelta(nil, nil, cur)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplySnapshotDelta(nil, delta[:len(delta)/2]); err == nil {
		t.Fatal("truncated delta accepted")
	}
	if _, err := ApplySnapshotDelta(nil, append(append([]byte(nil), delta...), 0x07)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
	other := New(Config{GlobalSize: 2048, HeapSize: 8192, StackSlot: 1024, MaxThreads: 4}).Snapshot()
	if _, err := ApplySnapshotDelta(other, delta); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
	if _, err := AppendSnapshotDelta(nil, other, cur); err == nil {
		t.Fatal("encoding across geometries accepted")
	}
	mut := append([]byte(nil), delta...)
	mut[3] = 0xff // inflate a run length
	if _, err := ApplySnapshotDelta(nil, mut); err == nil {
		// Not every mutation must fail (it may decode to different bytes),
		// but it must never panic; reaching here without a panic is fine.
		t.Log("mutated delta decoded; bounds held")
	}
}

// TestSnapshotDeltaHostileKeyframe: a CRC-valid checkpoint frame is still
// untrusted input. A ~30-byte keyframe declaring three 4 GiB segments of
// zeros must cost its page tables, not 12 GiB; a literal that runs past the
// end of a segment which itself ends mid-page is an error, not a panic or a
// write into the page's padding.
func TestSnapshotDeltaHostileKeyframe(t *testing.T) {
	const seg = 1 << 32
	var frame []byte
	for i := 0; i < numSegs; i++ {
		frame = binary.AppendUvarint(frame, seg)
	}
	for i := 0; i < numSegs; i++ {
		frame = binary.AppendUvarint(frame, seg) // zeros
		frame = binary.AppendUvarint(frame, 0)   // lit
	}
	if len(frame) > 40 {
		t.Fatalf("hostile frame is %d bytes, meant to be tiny", len(frame))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s, err := ApplySnapshotDelta(nil, frame)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("declared-zero keyframe rejected: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 64<<20 {
		t.Fatalf("decoding a %d-byte frame allocated %d MiB", len(frame), grew>>20)
	}
	if g, h, st := s.Lens(); g != seg || h != seg || st != seg {
		t.Fatalf("Lens() = %d/%d/%d, frame declared %d each", g, h, st, seg)
	}
	if s.PagesCopied() != 0 {
		t.Fatalf("an all-zero keyframe materialized %d pages", s.PagesCopied())
	}

	// Geometry 2048/9000/5120: the heap's last page holds 808 real bytes.
	cfg := smallConfig()
	lens := []uint64{uint64(cfg.GlobalSize), uint64(cfg.HeapSize), uint64(cfg.StackSlot) * uint64(cfg.MaxThreads)}
	build := func(heapZeros, heapLit uint64) []byte {
		var b []byte
		for _, n := range lens {
			b = binary.AppendUvarint(b, n)
		}
		b = binary.AppendUvarint(b, lens[0])
		b = binary.AppendUvarint(b, 0)
		b = binary.AppendUvarint(b, heapZeros)
		b = binary.AppendUvarint(b, heapLit)
		b = append(b, bytes.Repeat([]byte{0xee}, int(heapLit))...)
		b = binary.AppendUvarint(b, lens[2])
		b = binary.AppendUvarint(b, 0)
		return b
	}
	ok, err := ApplySnapshotDelta(nil, build(lens[1]-10, 10))
	if err != nil {
		t.Fatalf("literal ending exactly at the segment end rejected: %v", err)
	}
	if last := ok.pages[segHeap][2]; last[807] != 0xee || last[808] != 0 {
		t.Fatal("literal at the segment end landed wrong or spilled into the page padding")
	}
	for _, over := range []uint64{11, pageSize - 808 + 10, pageSize} {
		if _, err := ApplySnapshotDelta(nil, build(lens[1]-10, over)); err == nil {
			t.Fatalf("literal of %d bytes starting 10 before the heap's end accepted", over)
		}
	}
	if _, err := ApplySnapshotDelta(nil, build(lens[1]+1, 0)); err == nil {
		t.Fatal("zero run past the heap's end accepted")
	}
}
