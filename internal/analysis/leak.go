package analysis

// Memory-leak detection by diffing allocator state against a conservative
// reachability scan of the virtual address space.
//
// The allocator side is exact: heap.Deterministic tracks every live object.
// The reachability side is a conservative mark pass in the GC tradition:
// roots are every 8-byte word of the globals segment plus, for threads that
// still have execution state, the live stack range and every frame register;
// any root word that points into a live object's payload marks it, and
// marking proceeds transitively through object payloads. A live object no
// root can reach is leaked — no pointer to it exists anywhere, so it can
// never be freed — and the allocation-site stack captured by the alloc
// observer blames the code that allocated it.
//
// Scans run at epoch boundaries (when attached to an in-situ runtime — the
// world is quiescent and register roots are capturable) and at program end
// via Finish. Offline replay has no epoch boundaries, so there the
// program-end scan is the whole story; by then every thread has exited and
// only globals root the heap, which is exactly the reachability that
// matters for "leaked at exit".

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/mem"
)

// Leak is one leaked allocation.
type Leak struct {
	Addr uint64
	Size int64
	// TID is the allocating thread.
	TID int32
	// Stack is the allocation site, innermost frame first.
	Stack []interp.StackEntry
	// Epoch is the 1-based scan that first found the object unreachable
	// (0 = the program-end scan).
	Epoch int64
}

// LeakDetector is the reachability analyzer. Use NewLeakDetector.
type LeakDetector struct {
	mu sync.Mutex
	// sites is the live allocation-site table; an in-situ rollback restores
	// it through the state codec (state.go).
	sites map[uint64]allocSite
	// leaks is monotone: a rollback keeps it (DecodeState). Deduped across
	// scans by payload address.
	leaks map[uint64]Leak
}

type allocSite struct {
	tid   int32
	stack []interp.StackEntry
}

// NewLeakDetector builds a leak analyzer.
func NewLeakDetector() *LeakDetector {
	return &LeakDetector{
		sites: make(map[uint64]allocSite),
		leaks: make(map[uint64]Leak),
	}
}

// Name implements Analyzer.
func (d *LeakDetector) Name() string { return "leak" }

// OnAlloc implements core.AllocObserver.
func (d *LeakDetector) OnAlloc(tid int32, addr uint64, size int64, stack []interp.StackEntry) {
	d.mu.Lock()
	d.sites[addr] = allocSite{tid: tid, stack: stack}
	d.mu.Unlock()
}

// OnFree implements core.AllocObserver.
func (d *LeakDetector) OnFree(tid int32, addr uint64, stack []interp.StackEntry) {
	d.mu.Lock()
	delete(d.sites, addr)
	d.mu.Unlock()
}

// OnEpochEnd implements core.EpochObserver: scan while the world is
// quiescent. Always proceeds — leak evidence needs no re-execution, the
// allocation site was captured on the way in.
func (d *LeakDetector) OnEpochEnd(rt *core.Runtime, info core.EpochEndInfo) core.Decision {
	d.scan(rt, info.Epoch)
	return core.Proceed
}

// OnReplayMatched implements core.EpochObserver.
func (d *LeakDetector) OnReplayMatched(rt *core.Runtime, attempts int) core.Decision {
	return core.Proceed
}

// Finish implements Analyzer: the program-end scan.
func (d *LeakDetector) Finish(rt *core.Runtime) error {
	return d.scan(rt, 0)
}

// scan diffs the allocator's live set against reachability.
func (d *LeakDetector) scan(rt *core.Runtime, epoch int64) error {
	det := rt.DetAllocator()
	if det == nil {
		return fmt.Errorf("leak analysis requires the deterministic allocator")
	}
	objs := det.LiveObjects() // sorted by payload address
	reach := markReachable(rt, objs)
	d.mu.Lock()
	defer d.mu.Unlock()
	for i, o := range objs {
		if reach[i] {
			continue
		}
		if _, dup := d.leaks[o.Addr]; dup {
			continue
		}
		l := Leak{Addr: o.Addr, Size: o.Size, TID: o.Tid, Epoch: epoch}
		if s, ok := d.sites[o.Addr]; ok {
			l.TID = s.tid
			l.Stack = s.stack
		}
		d.leaks[o.Addr] = l
	}
	return nil
}

// markReachable runs the conservative mark pass and returns a reachability
// bit per object (objs must be sorted by Addr, as LiveObjects guarantees).
func markReachable(rt *core.Runtime, objs []heap.Object) []bool {
	m := rt.Mem()
	cfg := m.Config()
	reach := make([]bool, len(objs))

	// find locates the object whose payload contains word w.
	find := func(w uint64) int {
		i := sort.Search(len(objs), func(i int) bool {
			return objs[i].Addr+uint64(objs[i].Size) > w
		})
		if i < len(objs) && w >= objs[i].Addr {
			return i
		}
		return -1
	}

	var work []int
	scanRange := func(addr uint64, size int64) {
		if size <= 0 {
			return
		}
		// Align the scan to 8-byte words inside the range.
		if r := addr % 8; r != 0 {
			addr += 8 - r
			size -= int64(8 - r)
		}
		b, err := m.ReadBytes(addr, int(size))
		if err != nil {
			return
		}
		for off := 0; off+8 <= len(b); off += 8 {
			w := uint64(b[off]) | uint64(b[off+1])<<8 | uint64(b[off+2])<<16 |
				uint64(b[off+3])<<24 | uint64(b[off+4])<<32 | uint64(b[off+5])<<40 |
				uint64(b[off+6])<<48 | uint64(b[off+7])<<56
			if w < mem.HeapBase || w >= mem.HeapBase+uint64(cfg.HeapSize) {
				continue
			}
			if i := find(w); i >= 0 && !reach[i] {
				reach[i] = true
				work = append(work, i)
			}
		}
	}

	// Roots: the globals segment, then live threads' stacks and registers.
	scanRange(mem.GlobalBase, cfg.GlobalSize)
	for _, tr := range rt.LiveThreadRoots() {
		scanRange(tr.StackLow, int64(tr.StackHigh-tr.StackLow))
		for _, w := range tr.Regs {
			if w >= mem.HeapBase && w < mem.HeapBase+uint64(cfg.HeapSize) {
				if i := find(w); i >= 0 && !reach[i] {
					reach[i] = true
					work = append(work, i)
				}
			}
		}
	}

	// Transitive marking through object payloads.
	for len(work) > 0 {
		i := work[len(work)-1]
		work = work[:len(work)-1]
		scanRange(objs[i].Addr, objs[i].Size)
	}
	return reach
}

// Leaks returns the leaked allocations found so far, sorted by address.
func (d *LeakDetector) Leaks() []Leak {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Leak, 0, len(d.leaks))
	for _, l := range d.leaks {
		out = append(out, l)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Findings implements Analyzer.
func (d *LeakDetector) Findings() []Finding {
	out := make([]Finding, 0)
	for _, l := range d.Leaks() {
		site := Site{TID: l.TID, Stack: l.Stack}
		when := "program end"
		if l.Epoch > 0 {
			when = fmt.Sprintf("epoch %d boundary", l.Epoch)
		}
		out = append(out, Finding{
			Analyzer: "leak",
			Kind:     "memory-leak",
			Addr:     l.Addr,
			Size:     l.Size,
			Sites:    []Site{site},
			Detail: fmt.Sprintf("%d bytes at %#x allocated by %s (thread %d) unreachable at %s",
				l.Size, l.Addr, site.Func(), l.TID, when),
		})
	}
	sortFindings(out)
	return out
}
