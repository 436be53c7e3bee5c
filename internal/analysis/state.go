package analysis

// Checkpointable analyzer state: the append/decode codecs that are an
// analyzer's one serialized state. They carry it across a segment boundary
// as bytes, and they are what an in-situ rollback restores (core captures
// every core.StateObserver at each rollback target and decodes it back).
//
// Segment-parallel analysis folds segments sequentially into one analyzer
// chain (see tape.go); at every boundary the fold serializes the chain's
// state and decodes it into a fresh analyzer set built by the job's
// factory — the propagated state chain of the multi-node design, exercised
// in-process on every boundary so the codecs cannot rot. The encodings
// follow the interp.AppendContext / mem.AppendSnapshotDelta house style:
// canonical (map keys sorted, addresses delta-encoded ascending),
// self-delimiting varints, an inline back-referencing string table for
// stack symbols, and bounded-allocation plausibility checks on decode.
//
//   - RaceDetector: vector clocks (per thread, per sync object, barriers,
//     exits), the 8-byte-granule shadow cells with their retained access
//     stacks, the dedup set, and the races found so far.
//   - LeakDetector: the allocation-site table (heap contents ride the
//     runtime checkpoint, not the analyzer) and the leaks found.
//   - Profile: its counters.

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/interp"
)

// StateCheckpointer is the analyzer state codec every Analyzer carries:
// AppendState serializes the analyzer's complete accumulated state,
// DecodeState restores a decoded one and returns the unconsumed remainder.
// An analyzer set can be handed across a segment boundary (or a wire) and
// resumed by a fresh set from the same factory.
type StateCheckpointer = core.StateObserver

// --- codec primitives ---

// stateWriter accumulates a canonical varint encoding with an inline
// string table: the first occurrence of a string is emitted as a 0 marker
// plus its bytes, later occurrences as a 1-based back-reference.
type stateWriter struct {
	b    []byte
	strs map[string]uint64
}

func (w *stateWriter) u(v uint64) { w.b = binary.AppendUvarint(w.b, v) }

// z zigzag-encodes a signed value.
func (w *stateWriter) z(v int64) { w.u(uint64((v << 1) ^ (v >> 63))) }

func (w *stateWriter) bool(v bool) {
	if v {
		w.u(1)
	} else {
		w.u(0)
	}
}

func (w *stateWriter) str(s string) {
	if ref, ok := w.strs[s]; ok {
		w.u(ref)
		return
	}
	if w.strs == nil {
		w.strs = make(map[string]uint64)
	}
	w.strs[s] = uint64(len(w.strs)) + 1
	w.u(0)
	w.u(uint64(len(s)))
	w.b = append(w.b, s...)
}

func (w *stateWriter) stack(st []interp.StackEntry) {
	w.u(uint64(len(st)))
	for _, e := range st {
		w.str(e.Func)
		w.z(int64(e.PC))
	}
}

// stateReader inverts stateWriter with a sticky error, so decoders read
// straight through and check once.
type stateReader struct {
	b    []byte
	strs []string
	err  error
}

func (r *stateReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

func (r *stateReader) u() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.fail("analysis: truncated state")
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *stateReader) z() int64 {
	v := r.u()
	return int64(v>>1) ^ -int64(v&1)
}

func (r *stateReader) bool() bool { return r.u() != 0 }

// count reads a collection length and bounds it by what the remaining
// buffer could plausibly hold (each element costs at least one byte).
func (r *stateReader) count(what string) int {
	n := r.u()
	if n > uint64(len(r.b))+1 {
		r.fail("analysis: implausible %s count %d in state", what, n)
		return 0
	}
	return int(n)
}

func (r *stateReader) str() string {
	ref := r.u()
	if ref == 0 {
		n := r.count("string byte")
		if r.err != nil || n > len(r.b) {
			r.fail("analysis: truncated string in state")
			return ""
		}
		s := string(r.b[:n])
		r.b = r.b[n:]
		r.strs = append(r.strs, s)
		return s
	}
	if ref > uint64(len(r.strs)) {
		r.fail("analysis: dangling string reference %d in state", ref)
		return ""
	}
	return r.strs[ref-1]
}

func (r *stateReader) stack() []interp.StackEntry {
	n := r.count("stack frame")
	if n == 0 {
		return nil
	}
	st := make([]interp.StackEntry, n)
	for i := range st {
		st[i] = interp.StackEntry{Func: r.str(), PC: int(r.z())}
	}
	return st
}

func sortedTIDs[V any](m map[int32]V) []int32 {
	out := make([]int32, 0, len(m))
	for t := range m {
		out = append(out, t)
	}
	slices.Sort(out)
	return out
}

func sortedAddrs[V any](m map[uint64]V) []uint64 {
	out := make([]uint64, 0, len(m))
	for a := range m {
		out = append(out, a)
	}
	slices.Sort(out)
	return out
}

// --- race detector ---

func (w *stateWriter) clock(c vclock) {
	w.u(uint64(len(c)))
	for _, v := range c {
		w.u(v)
	}
}

func (r *stateReader) clock() vclock {
	n := r.count("clock component")
	if n == 0 {
		return nil
	}
	c := make(vclock, n)
	for i := range c {
		c[i] = r.u()
	}
	return c
}

func (w *stateWriter) access(a *access) {
	w.u(uint64(a.tid))
	w.u(a.epoch)
	w.bool(a.write)
	w.bool(a.atomic)
	w.u(a.addr)
	w.z(int64(a.size))
	w.stack(a.stack)
}

func (r *stateReader) access() access {
	return access{
		tid:    int32(r.u()),
		epoch:  r.u(),
		write:  r.bool(),
		atomic: r.bool(),
		addr:   r.u(),
		size:   int(r.z()),
		stack:  r.stack(),
	}
}

// AppendState implements StateCheckpointer.
func (d *RaceDetector) AppendState(b []byte) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := &stateWriter{b: b}
	s := d.st

	w.u(uint64(len(s.threads)))
	for _, t := range sortedTIDs(s.threads) {
		w.u(uint64(t))
		w.clock(*s.threads[t])
	}
	w.u(uint64(len(s.syncC)))
	prev := uint64(0)
	for _, a := range sortedAddrs(s.syncC) {
		w.u(a - prev)
		prev = a
		w.clock(*s.syncC[a])
	}
	w.u(uint64(len(s.barriers)))
	prev = 0
	for _, a := range sortedAddrs(s.barriers) {
		w.u(a - prev)
		prev = a
		w.clock(s.barriers[a].pending)
		w.clock(s.barriers[a].rel)
	}
	w.u(uint64(len(s.exits)))
	for _, t := range sortedTIDs(s.exits) {
		w.u(uint64(t))
		w.clock(s.exits[t])
	}
	w.u(uint64(len(s.shadow)))
	prev = 0
	for _, a := range sortedAddrs(s.shadow) {
		g := s.shadow[a]
		w.u(a - prev)
		prev = a
		w.bool(g.hasWrite)
		if g.hasWrite {
			w.access(&g.write)
		}
		w.u(uint64(len(g.reads)))
		for i := range g.reads {
			w.access(&g.reads[i])
		}
	}
	keys := make([]string, 0, len(s.seen))
	for k := range s.seen {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.u(uint64(len(keys)))
	for _, k := range keys {
		w.str(k)
	}
	w.u(uint64(len(s.races)))
	for i := range s.races {
		r := &s.races[i]
		w.u(r.Addr)
		w.access(&r.Prev)
		w.access(&r.Cur)
	}
	return w.b
}

// DecodeState implements StateCheckpointer. The decoded state replaces the
// receiver's wholesale, races and dedup set included.
func (d *RaceDetector) DecodeState(b []byte) ([]byte, error) {
	r := &stateReader{b: b}
	s := newRaceState()
	for i, n := 0, r.count("thread clock"); i < n && r.err == nil; i++ {
		t := int32(r.u())
		c := r.clock()
		s.threads[t] = &c
	}
	prev := uint64(0)
	for i, n := 0, r.count("sync clock"); i < n && r.err == nil; i++ {
		prev += r.u()
		c := r.clock()
		s.syncC[prev] = &c
	}
	prev = 0
	for i, n := 0, r.count("barrier clock"); i < n && r.err == nil; i++ {
		prev += r.u()
		s.barriers[prev] = &barrierClock{pending: r.clock(), rel: r.clock()}
	}
	for i, n := 0, r.count("exit clock"); i < n && r.err == nil; i++ {
		t := int32(r.u())
		s.exits[t] = r.clock()
	}
	prev = 0
	for i, n := 0, r.count("shadow cell"); i < n && r.err == nil; i++ {
		prev += r.u()
		g := &granule{}
		if r.bool() {
			g.write, g.hasWrite = r.access(), true
		}
		if nr := r.count("shadow read"); nr > 0 {
			g.reads = make([]access, nr)
			for j := range g.reads {
				g.reads[j] = r.access()
			}
		}
		s.shadow[prev] = g
	}
	for i, n := 0, r.count("dedup key"); i < n && r.err == nil; i++ {
		s.seen[r.str()] = true
	}
	for i, n := 0, r.count("race"); i < n && r.err == nil; i++ {
		rc := Race{Addr: r.u(), Prev: r.access(), Cur: r.access()}
		// Sites are derived views of the accesses; rebuild instead of
		// serializing them twice.
		rc.PrevSite, rc.CurSite = rc.Prev.site(), rc.Cur.site()
		s.races = append(s.races, rc)
	}
	if r.err != nil {
		return nil, fmt.Errorf("race state: %w", r.err)
	}
	d.mu.Lock()
	d.st = s
	d.mu.Unlock()
	return r.b, nil
}

// --- leak detector ---

// AppendState implements StateCheckpointer. Only the site table and found
// leaks are analyzer state; heap contents ride the runtime checkpoint.
func (d *LeakDetector) AppendState(b []byte) []byte {
	d.mu.Lock()
	defer d.mu.Unlock()
	w := &stateWriter{b: b}
	w.u(uint64(len(d.sites)))
	prev := uint64(0)
	for _, a := range sortedAddrs(d.sites) {
		s := d.sites[a]
		w.u(a - prev)
		prev = a
		w.u(uint64(s.tid))
		w.stack(s.stack)
	}
	w.u(uint64(len(d.leaks)))
	prev = 0
	for _, a := range sortedAddrs(d.leaks) {
		l := d.leaks[a]
		w.u(a - prev)
		prev = a
		w.z(l.Size)
		w.u(uint64(l.TID))
		w.z(l.Epoch)
		w.stack(l.Stack)
	}
	return w.b
}

// DecodeState implements StateCheckpointer. The site table is replaced;
// leaks are merged, keeping what the receiver already holds. They are
// monotone facts: an unreachable object cannot become reachable by
// re-executing the epoch that found it, and a boundary scan is not re-run
// after a matched replay, so an in-situ rollback must not forget what it
// found. Into a fresh receiver (the segment fold) this is a replace.
func (d *LeakDetector) DecodeState(b []byte) ([]byte, error) {
	r := &stateReader{b: b}
	sites := make(map[uint64]allocSite)
	prev := uint64(0)
	for i, n := 0, r.count("alloc site"); i < n && r.err == nil; i++ {
		prev += r.u()
		sites[prev] = allocSite{tid: int32(r.u()), stack: r.stack()}
	}
	var leaks []Leak
	prev = 0
	for i, n := 0, r.count("leak"); i < n && r.err == nil; i++ {
		prev += r.u()
		leaks = append(leaks, Leak{
			Addr:  prev,
			Size:  r.z(),
			TID:   int32(r.u()),
			Epoch: r.z(),
			Stack: r.stack(),
		})
	}
	if r.err != nil {
		return nil, fmt.Errorf("leak state: %w", r.err)
	}
	d.mu.Lock()
	d.sites = sites
	for _, l := range leaks {
		if _, ok := d.leaks[l.Addr]; !ok {
			d.leaks[l.Addr] = l
		}
	}
	d.mu.Unlock()
	return r.b, nil
}

// --- profile ---

// AppendState implements StateCheckpointer.
func (p *Profile) AppendState(b []byte) []byte {
	w := &stateWriter{b: b}
	w.z(p.Syncs.Load())
	w.z(p.Creates.Load())
	w.z(p.Exits.Load())
	w.z(p.Joins.Load())
	w.z(p.Allocs.Load())
	w.z(p.Frees.Load())
	w.z(p.Syscalls.Load())
	w.z(p.Accesses.Load())
	return w.b
}

// DecodeState implements StateCheckpointer.
func (p *Profile) DecodeState(b []byte) ([]byte, error) {
	r := &stateReader{b: b}
	var vals [8]int64
	for i := range vals {
		vals[i] = r.z()
	}
	if r.err != nil {
		return nil, fmt.Errorf("profile state: %w", r.err)
	}
	p.Syncs.Store(vals[0])
	p.Creates.Store(vals[1])
	p.Exits.Store(vals[2])
	p.Joins.Store(vals[3])
	p.Allocs.Store(vals[4])
	p.Frees.Store(vals[5])
	p.Syscalls.Store(vals[6])
	p.Accesses.Store(vals[7])
	return r.b, nil
}
