package mem

// Recycled address spaces.
//
// The paper's replay is in-situ: rollback restores the writable memory of
// the process it already has (§3.1, §3.4) instead of building a new one.
// Restore gives a Memory that property within one runtime; Release extends
// it across runtimes. Whole replays, segment fan-outs and daemon record jobs
// each build a runtime, run it and discard it, and at the default geometry
// a fresh address space is 21 MiB to allocate and clear. A released space is
// instead restored to the all-zero snapshot of its geometry — by the
// dirty-flag invariant that copies only the pages the run stored to or that
// its last checkpoint does not share with zero — and its storage waits on a
// free list for the next New of the same Config.
//
// The list holds at most GOMAXPROCS spares, across every Config: a bound
// derived from the host, not a knob, which covers a steady stream of
// runtimes running one per CPU and caps what is retained. A caller that
// keeps more runtimes live at once (a daemon running segmented jobs side by
// side) allocates the excess, and the excess is dropped again on release.
// A full list still makes room for a geometry with fewer spares than
// another by evicting one of the larger holding, so the Config that filled
// the list first cannot starve every later one. Reuse is explicit and
// deterministic; nothing is recycled behind a caller's back.

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// backing is the storage of one address space: the three live segments and
// their page dirty flags. On the free list it is all zero with every flag
// clear.
type backing struct {
	segs  [numSegs][]byte
	dirty [numSegs][]atomic.Uint32
}

// geometry is what every address space of one Config shares: the immutable
// all-zero snapshot each starts from, and the spares waiting for reuse.
type geometry struct {
	zero   *Snapshot
	spares []backing
}

var recycler struct {
	sync.Mutex
	geoms  map[Config]*geometry
	order  []*geometry // every geometry, in creation order
	spares int         // across every geometry
}

// acquire returns zeroed storage for cfg — a spare when one is free — and
// the geometry it belongs to.
func acquire(cfg Config) (backing, *geometry) {
	recycler.Lock()
	g := recycler.geoms[cfg]
	if g == nil {
		if recycler.geoms == nil {
			recycler.geoms = make(map[Config]*geometry)
		}
		lens := [numSegs]int{int(cfg.GlobalSize), int(cfg.HeapSize), int(cfg.StackSlot * int64(cfg.MaxThreads))}
		g = &geometry{zero: zeroSnapshot(lens)}
		recycler.geoms[cfg] = g
		recycler.order = append(recycler.order, g)
	}
	if n := len(g.spares); n > 0 {
		b := g.spares[n-1]
		g.spares[n-1] = backing{}
		g.spares = g.spares[:n-1]
		recycler.spares--
		recycler.Unlock()
		return b, g
	}
	recycler.Unlock()
	var b backing
	for seg, n := range g.zero.lens {
		b.segs[seg] = make([]byte, n)
		b.dirty[seg] = make([]atomic.Uint32, pagesFor(n))
	}
	return b, g
}

// recycle puts zeroed storage on g's free list. When the list already holds
// GOMAXPROCS spares, the geometry holding the most gives one up if it would
// still hold more than g; otherwise b is dropped for the collector.
func recycle(g *geometry, b backing) {
	recycler.Lock()
	defer recycler.Unlock()
	if recycler.spares >= runtime.GOMAXPROCS(0) {
		most := g
		for _, o := range recycler.order {
			if len(o.spares) > len(most.spares) {
				most = o
			}
		}
		n := len(most.spares)
		if n <= len(g.spares)+1 {
			return
		}
		most.spares[n-1] = backing{}
		most.spares = most.spares[:n-1]
		recycler.spares--
	}
	g.spares = append(g.spares, b)
	recycler.spares++
}

// Release gives the address space back for reuse by a later New of the same
// Config. It restores the all-zero snapshot — O(pages stored to or differing
// from it), not the size of the space — which re-establishes "all zero,
// every dirty flag clear", and hands the storage to the free list. Like
// Restore it needs every vthread of this Memory parked for good.
//
// Afterwards the Memory holds no segments: every load and store returns a
// *Fault, never another runtime's bytes, and Snapshot and Restore must not
// be called. A second Release is a no-op.
func (m *Memory) Release() {
	g := m.geom
	if g == nil {
		return
	}
	m.Restore(g.zero)
	b := backing{segs: m.live(), dirty: m.dirty}
	*m = Memory{cfg: m.cfg}
	recycle(g, b)
}
