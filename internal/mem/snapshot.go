package mem

// Page-granular copy-on-write snapshots.
//
// A Snapshot is three tables of pointers to immutable 4 KiB pages, one table
// per segment. Pages are never written after the snapshot that created them
// returns, so any number of snapshots — successive epochs' checkpoints, a
// checkpoint folded from a trace, the copies concurrent segment replays share
// — may point at the same page, and two snapshots that hold the same pointer
// at an index hold the same bytes there. Every all-zero page of a snapshot
// that was never stored to is the one global zeroPage. A segment whose length
// is not a page multiple ends in a page whose bytes past the segment stay
// zero, so whole-page comparison is exact.
//
// Live memory is not paged. What ties it to the tables is one invariant:
//
//	for every page i of every segment,
//	dirty[i] clear  ⇒  live bytes of page i == *base.pages[i]
//
// mem.New establishes it (zero memory, base = the all-zero snapshot, no flag
// set); storeWindow keeps it by setting the flag of every page it hands out;
// Snapshot and Restore are the only code that clears a flag or moves base,
// and each re-establishes it for the snapshot it returns or was given.
// Release (recycle.go) leans on it: a Restore to the all-zero snapshot is
// what makes released storage fit for the next New.
// Restore accepts any snapshot of the same geometry — an older one, one taken
// from another Memory, one folded from a trace by another goroutine — because
// it trusts only the invariant, never the caller's history.
//
// Snapshot and Restore read every flag and read or write live memory, so the
// caller must have every vthread of this Memory parked (the epoch
// coordinator's quiescent boundary, or a runtime that has not started or has
// finished); the park/resume handshake is what orders the vthreads' flag and
// memory writes before them. Everything that takes only *Snapshot arguments
// (Equal, DiffCount, the delta codec) is safe from any goroutine at any time.

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// pageSize is the snapshot granule. 4 KiB keeps the page table of the
// default 21 MiB address space at 5,376 pointers (43 KB per snapshot) while a
// typical epoch dirties a few dozen pages.
const (
	pageShift = 12
	pageSize  = 1 << pageShift
)

// Segment indices, in address and wire order.
const (
	segGlobals = iota
	segHeap
	segStacks
	numSegs
)

var segBase = [numSegs]uint64{GlobalBase, HeapBase, StackBase}

type page [pageSize]byte

// zeroPage backs every never-written page of every snapshot. Like all pages
// it is immutable.
var zeroPage page

func pagesFor(n int) int { return (n + pageSize - 1) >> pageShift }

// pageLen is the number of bytes of a segment of n bytes that fall in page i.
func pageLen(n, i int) int { return min(pageSize, n-i<<pageShift) }

// Snapshot is an immutable image of the writable address space at an epoch
// boundary (§3.1).
type Snapshot struct {
	lens   [numSegs]int
	pages  [numSegs][]*page
	copied int
}

// zeroSnapshot is the all-zero image of the given geometry: page tables only.
func zeroSnapshot(lens [numSegs]int) *Snapshot {
	s := &Snapshot{lens: lens}
	for seg, n := range lens {
		table := make([]*page, pagesFor(n))
		for i := range table {
			table[i] = &zeroPage
		}
		s.pages[seg] = table
	}
	return s
}

// pageAt returns page i of segment seg; a nil snapshot is the all-zero image
// every keyframe is encoded against and folded over.
func (s *Snapshot) pageAt(seg, i int) *page {
	if s == nil {
		return &zeroPage
	}
	return s.pages[seg][i]
}

// live returns the three segments for reading.
func (m *Memory) live() [numSegs][]byte {
	return [numSegs][]byte{m.globals, m.heap, m.stacks}
}

// Snapshot captures the address space: the pages stored to since the base
// snapshot are copied, every other page is shared with it, and the result
// becomes the new base.
func (m *Memory) Snapshot() *Snapshot {
	s := &Snapshot{lens: m.base.lens}
	for seg, live := range m.live() {
		flags, table := m.dirty[seg], m.base.pages[seg]
		shared := true
		for i := range flags {
			if flags[i].Load() == 0 {
				continue
			}
			if shared {
				table, shared = slices.Clone(table), false
			}
			p := new(page)
			copy(p[:], live[i<<pageShift:])
			table[i] = p
			flags[i].Store(0)
			s.copied++
		}
		s.pages[seg] = table
	}
	m.base = s
	return s
}

// Restore makes the address space equal to s, implementing the memory
// portion of rollback (§3.4): it copies back every page that was stored to
// since the base snapshot or that s does not share with the base, and s
// becomes the base. Stack pages beyond the checkpointed image are restored
// like any other, which subsumes the paper's zeroing of the unused stack
// remainder. s must have this address space's geometry.
func (m *Memory) Restore(s *Snapshot) {
	if s.lens != m.base.lens {
		panic(fmt.Sprintf("mem: restoring a %v snapshot into a %v address space", s.lens, m.base.lens))
	}
	for seg, to := range s.pages {
		flags, from := m.dirty[seg], m.base.pages[seg]
		for i := range flags {
			if flags[i].Load() == 0 && from[i] == to[i] {
				continue
			}
			// The window marks the page; the flag is cleared once the page
			// holds the snapshot's bytes again.
			w, _ := m.storeWindow(segBase[seg]+uint64(i)<<pageShift, pageLen(s.lens[seg], i))
			copy(w, to[i][:])
			flags[i].Store(0)
		}
	}
	m.base = s
}

// Lens returns the byte sizes of the snapshot's globals, heap, and stacks
// images; a restore target must be configured identically.
func (s *Snapshot) Lens() (globals, heap, stacks int) {
	return s.lens[segGlobals], s.lens[segHeap], s.lens[segStacks]
}

// PagesCopied returns how many pages this snapshot does not share with the
// snapshot it was derived from: the pages Memory.Snapshot copied out of live
// memory, or the pages a delta's literals touched.
func (s *Snapshot) PagesCopied() int { return s.copied }

// Equal reports whether two snapshots are byte-identical over the whole
// address space — the segment stitching check: a replayed segment's end state
// must match the next recorded checkpoint exactly. A page both snapshots hold
// by the same pointer is equal because pages are immutable; every other page
// is compared.
func (s *Snapshot) Equal(o *Snapshot) bool {
	if o == nil || s.lens != o.lens {
		return false
	}
	for seg, a := range s.pages {
		b := o.pages[seg]
		for i := range a {
			if a[i] != b[i] && *a[i] != *b[i] {
				return false
			}
		}
	}
	return true
}

// DiffCount counts differing byte positions across all three segments
// (diagnostics for a failed stitch). Against nil or another geometry every
// position differs.
func (s *Snapshot) DiffCount(o *Snapshot) int {
	if o == nil || s.lens != o.lens {
		return s.lens[segGlobals] + s.lens[segHeap] + s.lens[segStacks]
	}
	diff := 0
	for seg, a := range s.pages {
		for i, p := range a {
			if q := o.pages[seg][i]; p != q {
				diff += DiffBytes(p[:], q[:])
			}
		}
	}
	return diff
}

// --- snapshot delta codec -------------------------------------------------
//
// Checkpoint frames persist snapshots delta-encoded against the previous
// checkpoint: each segment is XORed with its predecessor image (zero when
// there is none), and the XOR stream — overwhelmingly zero, because most of
// the address space does not change between checkpoints — is run-length
// encoded as alternating zero-run / literal-run pairs. Decoding folds the
// delta back over the predecessor, so reconstructing checkpoint k costs the
// deltas of checkpoints 1..k, not k full images.
//
//	delta   := glen:uvarint hlen:uvarint slen:uvarint seg seg seg
//	seg     := run* (runs cover exactly the declared length)
//	run     := zeros:uvarint lit:uvarint litbyte*lit
//
// The encoding is canonical: every zero run is maximal (a literal run never
// contains 8 or more consecutive zero XOR bytes, and runs do not stop at page
// edges), so equal inputs produce identical bytes. Pages are how the codec
// avoids work, not part of the format: a page prev and cur share by pointer
// is 4 KiB of zero run without being read, and a fold step shares with prev
// every page no literal touches.

// minZeroRun is the shortest XOR zero run worth breaking a literal for: a
// run header costs two varints, so runs shorter than this are cheaper left
// inside the literal.
const minZeroRun = 8

// AppendSnapshotDelta appends the delta encoding of cur against prev. A nil
// prev encodes against an all-zero image of the same geometry (the first
// checkpoint of a trace). prev and cur must have identical segment lengths.
func AppendSnapshotDelta(b []byte, prev, cur *Snapshot) ([]byte, error) {
	if prev != nil && prev.lens != cur.lens {
		return nil, fmt.Errorf("mem: snapshot delta across mismatched geometries (%d/%d/%d vs %d/%d/%d)",
			prev.lens[0], prev.lens[1], prev.lens[2], cur.lens[0], cur.lens[1], cur.lens[2])
	}
	e := deltaEncoder{b: b}
	e.encode(prev, cur)
	return e.b, nil
}

// deltaEncoder turns the XOR stream of one snapshot pair into runs. Between
// calls it is in one of two states: no literal open (lit empty, zeros counts
// the zero run so far) or a literal open (lit holds its bytes, the last tail
// of them zero — a zero run still too short to end the literal).
type deltaEncoder struct {
	b     []byte
	zeros uint64
	lit   []byte
	tail  int
	// pagesRead counts pages whose bytes were examined: the encoder's cost,
	// which tests hold to the number of pages the pair does not share.
	pagesRead int
}

func (e *deltaEncoder) encode(prev, cur *Snapshot) {
	for _, n := range cur.lens {
		e.b = binary.AppendUvarint(e.b, uint64(n))
	}
	for seg, table := range cur.pages {
		for i, c := range table {
			if p, k := prev.pageAt(seg, i), pageLen(cur.lens[seg], i); c == p {
				e.zeroRun(k)
			} else {
				e.xorPage(p, c, k)
			}
		}
		e.endSegment()
	}
}

// xorPage feeds the first n XOR bytes of a page pair, a word at a time.
func (e *deltaEncoder) xorPage(p, c *page, n int) {
	e.pagesRead++
	k := 0
	for ; k+8 <= n; k += 8 {
		x := binary.LittleEndian.Uint64(c[k:]) ^ binary.LittleEndian.Uint64(p[k:])
		if x == 0 {
			e.zeroRun(8)
			continue
		}
		for j := 0; j < 64; j += 8 {
			e.xorByte(byte(x >> j))
		}
	}
	for ; k < n; k++ {
		e.xorByte(c[k] ^ p[k])
	}
}

func (e *deltaEncoder) xorByte(x byte) {
	if x == 0 {
		e.zeroRun(1)
		return
	}
	e.lit = append(e.lit, x)
	e.tail = 0
}

// zeroRun feeds n zero XOR bytes. An open literal absorbs them while its
// trailing zero run stays below minZeroRun; once the run reaches it, the
// literal ended where the run began.
func (e *deltaEncoder) zeroRun(n int) {
	switch {
	case len(e.lit) == 0:
		e.zeros += uint64(n)
	case e.tail+n < minZeroRun:
		e.lit = append(e.lit, zeroPage[:n]...)
		e.tail += n
	default:
		run := e.tail + n
		e.emit()
		e.zeros = uint64(run)
	}
}

// emit writes the pending (zeros, literal) pair, the literal without its
// trailing zeros, and returns to the no-literal state.
func (e *deltaEncoder) emit() {
	lit := e.lit[:len(e.lit)-e.tail]
	e.b = binary.AppendUvarint(e.b, e.zeros)
	e.b = binary.AppendUvarint(e.b, uint64(len(lit)))
	e.b = append(e.b, lit...)
	e.zeros, e.lit, e.tail = 0, e.lit[:0], 0
}

// endSegment closes a segment: a literal never carries trailing zeros to the
// segment end, they form a final (zeros, 0) run, as does a trailing zero run
// of any length.
func (e *deltaEncoder) endSegment() {
	if len(e.lit) > 0 {
		tail := e.tail
		e.emit()
		e.zeros = uint64(tail)
	}
	if e.zeros > 0 {
		e.emit()
	}
}

// ApplySnapshotDelta reconstructs the snapshot a delta encodes by folding it
// over prev (nil prev = all-zero base). The result shares with prev — or with
// the zero page — every page no literal run touches, so a fold step and a
// hostile keyframe alike allocate the page tables plus the pages their
// literal bytes land on. prev is not mutated.
func ApplySnapshotDelta(prev *Snapshot, data []byte) (*Snapshot, error) {
	var lens [numSegs]int
	rest := data
	for i := range lens {
		v, n := binary.Uvarint(rest)
		if n <= 0 {
			return nil, fmt.Errorf("mem: truncated snapshot delta header")
		}
		const maxSeg = 1 << 32
		if v > maxSeg {
			return nil, fmt.Errorf("mem: implausible snapshot segment length %d", v)
		}
		lens[i] = int(v)
		rest = rest[n:]
	}
	var out *Snapshot
	if prev == nil {
		out = zeroSnapshot(lens)
	} else {
		if prev.lens != lens {
			return nil, fmt.Errorf("mem: snapshot delta geometry %d/%d/%d does not match base %d/%d/%d",
				lens[0], lens[1], lens[2], prev.lens[0], prev.lens[1], prev.lens[2])
		}
		out = &Snapshot{lens: lens}
		for seg, table := range prev.pages {
			out.pages[seg] = slices.Clone(table)
		}
	}
	for seg := range out.pages {
		var err error
		if rest, err = out.applySegDelta(prev, seg, rest); err != nil {
			return nil, err
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("mem: %d trailing bytes in snapshot delta", len(rest))
	}
	return out, nil
}

// applySegDelta folds one segment's runs into out's page table, which starts
// as a copy of prev's. A page is copied the first time a literal lands on
// it; the unread data is returned.
func (out *Snapshot) applySegDelta(prev *Snapshot, seg int, data []byte) ([]byte, error) {
	table, n := out.pages[seg], out.lens[seg]
	pos := 0
	for pos < n {
		zeros, w := binary.Uvarint(data)
		if w <= 0 {
			return nil, fmt.Errorf("mem: truncated snapshot delta run at offset %d", pos)
		}
		data = data[w:]
		lit, w := binary.Uvarint(data)
		if w <= 0 {
			return nil, fmt.Errorf("mem: truncated snapshot delta run at offset %d", pos)
		}
		data = data[w:]
		if zeros > uint64(n-pos) || lit > uint64(n-pos)-zeros {
			return nil, fmt.Errorf("mem: snapshot delta run overflows segment (%d+%d at %d/%d)",
				zeros, lit, pos, n)
		}
		if lit > uint64(len(data)) {
			return nil, fmt.Errorf("mem: snapshot delta literal run of %d with %d bytes left", lit, len(data))
		}
		pos += int(zeros)
		for left := int(lit); left > 0; {
			i, off := pos>>pageShift, pos&(pageSize-1)
			k := min(left, pageSize-off)
			p := table[i]
			if orig := prev.pageAt(seg, i); p == orig {
				p = new(page)
				*p = *orig
				table[i] = p
				out.copied++
			}
			for j, x := range data[:k] {
				p[off+j] ^= x
			}
			data = data[k:]
			pos += k
			left -= k
		}
	}
	return data, nil
}

// HeapImage returns a copy of the current heap arena, used by the Table 1
// identity experiment.
func (m *Memory) HeapImage() []byte {
	out := make([]byte, len(m.heap))
	copy(out, m.heap)
	return out
}

// DiffBytes counts positions at which a and b differ. Slices of unequal
// length differ in every position beyond the shorter length.
func DiffBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	diff := 0
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			diff++
		}
	}
	if len(a) != len(b) {
		long := len(a)
		if len(b) > long {
			long = len(b)
		}
		diff += long - n
	}
	return diff
}

// DiffPercent returns 100 * DiffBytes / len, the Table 1 metric.
func DiffPercent(a, b []byte) float64 {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	if n == 0 {
		return 0
	}
	return 100 * float64(DiffBytes(a, b)) / float64(n)
}

// DiffAddrs reports up to max addresses (base-relative) at which a and b
// differ; used by detectors to locate corrupted canaries.
func DiffAddrs(a, b []byte, base uint64, max int) []uint64 {
	var out []uint64
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n && len(out) < max; i++ {
		if a[i] != b[i] {
			out = append(out, base+uint64(i))
		}
	}
	return out
}
