package analysis

// Happens-before data-race detection over a replayed execution.
//
// The detector maintains one vector clock per thread, one per
// synchronization object (mutexes, condition variables, barriers, and —
// because they are ad hoc synchronization — atomically accessed cells), and
// a shadow cell per 8-byte granule of heap/global memory holding the last
// write and each thread's last read. Two accesses to the same granule race
// when at least one writes and neither happens-before the other under the
// edges the replay delivers:
//
//   - thread create: parent → child's first action (ThreadObserver)
//   - thread exit → join (ThreadObserver)
//   - mutex release → subsequent acquire of the same mutex (SyncObserver;
//     trylock successes included, the runtime reports them as acquisitions)
//   - cond signal/broadcast → wake of a waiter on the same condition variable
//   - barrier: every arrival → the generation's release → every departure;
//     the release event rotates the barrier clock, so arrivals for the next
//     generation never leak into this generation's departures. (One
//     conservative corner: a sleeper still parked when a *later* generation
//     releases joins that newer, larger clock — an over-approximation that
//     can only mask races, never invent them.)
//   - atomic access → later atomic access of the same cell (acquire+release)
//
// Because identical replay fixes the order in which these edges are
// observed, the verdict — unlike the divergence signal of §5.2, which only
// says "some race exists somewhere" — is a precise racing pair: both access
// addresses and both call stacks, deterministically reproduced on every
// replay of the same trace.
//
// Runtime-internal ordering (thread-creation serialization, super-heap
// block fetches) is deliberately absent from the edge set: it is an
// implementation artifact whose edges would mask real races (core filters
// those pseudo-variables out of SyncObserver). Thread stacks are skipped
// entirely: a TIR stack slot is private to its thread.

import (
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/mem"
)

// vclock is a dense vector clock indexed by thread ID.
type vclock []uint64

func (c vclock) get(t int32) uint64 {
	if int(t) < len(c) {
		return c[t]
	}
	return 0
}

func (c *vclock) grow(t int32) {
	for int32(len(*c)) <= t {
		*c = append(*c, 0)
	}
}

func (c *vclock) join(o vclock) {
	c.grow(int32(len(o)) - 1)
	for i, v := range o {
		if v > (*c)[i] {
			(*c)[i] = v
		}
	}
}

func (c *vclock) tick(t int32) {
	c.grow(t)
	(*c)[t]++
}

// access is one recorded memory access: who, what, and from where.
type access struct {
	tid    int32
	epoch  uint64 // accessor's own clock component at access time
	write  bool
	atomic bool
	addr   uint64
	size   int
	stack  []interp.StackEntry
}

func (a access) site() Site {
	return Site{TID: a.tid, Write: a.write, Atomic: a.atomic, Stack: a.stack}
}

// granule is the shadow state of one 8-byte-aligned memory cell.
type granule struct {
	write    access
	hasWrite bool
	// reads holds one access per reading thread, its latest. A write does
	// not clear them: a thread's read followed by its own write would
	// otherwise hide the read from a concurrent writer whose access the
	// replay delivered after both, so whether the read/write pair is
	// reported would depend on the interleaving.
	reads []access
}

// Race is one reported racing pair; Prev was observed first during replay.
type Race struct {
	// Addr is the 8-byte granule both accesses touched.
	Addr      uint64
	Prev, Cur access
	PrevSite  Site
	CurSite   Site
}

// raceState is the detector's complete mutable state, the unit its state
// codec encodes and decodes.
type raceState struct {
	threads map[int32]*vclock
	syncC   map[uint64]*vclock // per sync object (incl. atomic cells)
	// barriers holds the two-phase barrier clocks: arrivals accumulate in
	// pending; the release event moves pending to rel, which departures
	// join.
	barriers map[uint64]*barrierClock
	exits    map[int32]vclock
	shadow   map[uint64]*granule
	seen     map[string]bool // site-pair dedup
	races    []Race
}

type barrierClock struct {
	pending vclock // arrivals of the generation in progress
	rel     vclock // released clock departures join
}

func newRaceState() *raceState {
	return &raceState{
		threads:  make(map[int32]*vclock),
		syncC:    make(map[uint64]*vclock),
		barriers: make(map[uint64]*barrierClock),
		exits:    make(map[int32]vclock),
		shadow:   make(map[uint64]*granule),
		seen:     make(map[string]bool),
	}
}

// RaceDetector is the happens-before analyzer. Zero value is not ready; use
// NewRaceDetector.
//
// It keeps no rollback state of its own: attached in situ, the runtime
// restores the whole detector — clocks, shadow cells, dedup set and races —
// through its state codec (state.go) at every rollback.
type RaceDetector struct {
	mu sync.Mutex
	st *raceState
}

// NewRaceDetector builds a race analyzer.
func NewRaceDetector() *RaceDetector {
	return &RaceDetector{st: newRaceState()}
}

// Name implements Analyzer.
func (d *RaceDetector) Name() string { return "race" }

// clock returns tid's vector clock, creating it at its first action.
func (d *RaceDetector) clock(tid int32) *vclock {
	c, ok := d.st.threads[tid]
	if !ok {
		c = &vclock{}
		c.tick(tid) // each thread starts in its own epoch 1
		d.st.threads[tid] = c
	}
	return c
}

func (d *RaceDetector) syncClock(addr uint64) *vclock {
	c, ok := d.st.syncC[addr]
	if !ok {
		c = &vclock{}
		d.st.syncC[addr] = c
	}
	return c
}

// OnSync implements core.SyncObserver.
func (d *RaceDetector) OnSync(tid int32, op core.SyncOp, addr uint64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.clock(tid)
	switch op {
	case core.SyncAcquire, core.SyncWake:
		c.join(*d.syncClock(addr))
	case core.SyncRelease, core.SyncSignal:
		d.syncClock(addr).join(*c)
		c.tick(tid)
	case core.SyncBarrierArrive:
		b := d.barrier(addr)
		b.pending.join(*c)
		c.tick(tid)
	case core.SyncBarrierRelease:
		b := d.barrier(addr)
		b.rel = b.pending
		b.pending = nil
	case core.SyncBarrierDepart:
		c.join(d.barrier(addr).rel)
	}
}

func (d *RaceDetector) barrier(addr uint64) *barrierClock {
	b, ok := d.st.barriers[addr]
	if !ok {
		b = &barrierClock{}
		d.st.barriers[addr] = b
	}
	return b
}

// OnThreadCreate implements core.ThreadObserver.
func (d *RaceDetector) OnThreadCreate(parent, child int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p := d.clock(parent)
	d.clock(child).join(*p)
	p.tick(parent)
}

// OnThreadExit implements core.ThreadObserver.
func (d *RaceDetector) OnThreadExit(tid int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.clock(tid)
	final := make(vclock, len(*c))
	copy(final, *c)
	d.st.exits[tid] = final
}

// OnThreadJoin implements core.ThreadObserver.
func (d *RaceDetector) OnThreadJoin(joiner, joinee int32) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if final, ok := d.st.exits[joinee]; ok {
		d.clock(joiner).join(final)
	}
}

// OnAccess implements core.AccessObserver: the race check proper.
func (d *RaceDetector) OnAccess(tid int32, addr uint64, size int, write, atomic bool,
	stack func() []interp.StackEntry) {
	if addr >= mem.StackBase {
		return // thread-private stack slot
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	c := d.clock(tid)
	if atomic {
		// Ad hoc synchronization (§5.2): an atomic access is both an acquire
		// and a release on its own cell, and is not itself a race candidate.
		l := d.syncClock(addr)
		c.join(*l)
		l.join(*c)
		c.tick(tid)
		return
	}
	cur := access{
		tid: tid, epoch: c.get(tid), write: write, atomic: atomic,
		addr: addr, size: size, stack: stack(),
	}
	first := addr &^ 7
	last := (addr + uint64(size) - 1) &^ 7
	for ga := first; ga <= last; ga += 8 {
		d.checkGranule(ga, cur, *c)
	}
}

// checkGranule races cur against granule ga's shadow state and updates it.
func (d *RaceDetector) checkGranule(ga uint64, cur access, c vclock) {
	g, ok := d.st.shadow[ga]
	if !ok {
		g = &granule{}
		d.st.shadow[ga] = g
	}
	racesWith := func(prev access) bool {
		return prev.tid != cur.tid && prev.epoch > c.get(prev.tid)
	}
	// Any access — read or write — races with an unordered previous write.
	if g.hasWrite && racesWith(g.write) {
		d.report(ga, g.write, cur)
	}
	if cur.write {
		for _, r := range g.reads {
			if racesWith(r) {
				d.report(ga, r, cur)
			}
		}
		g.write, g.hasWrite = cur, true
		return
	}
	for i := range g.reads {
		if g.reads[i].tid == cur.tid {
			g.reads[i] = cur
			return
		}
	}
	g.reads = append(g.reads, cur)
}

// report records a race, deduplicated by the unordered pair of innermost
// sites (function+PC) and access kinds, so a racing loop yields one finding.
func (d *RaceDetector) report(ga uint64, prev, cur access) {
	ps, cs := prev.site(), cur.site()
	k1 := fmt.Sprintf("%s+%d/%v", ps.Func(), topPC(ps), prev.write)
	k2 := fmt.Sprintf("%s+%d/%v", cs.Func(), topPC(cs), cur.write)
	key := k1 + "|" + k2
	if k2 < k1 {
		key = k2 + "|" + k1
	}
	if d.st.seen[key] {
		return
	}
	d.st.seen[key] = true
	d.st.races = append(d.st.races, Race{Addr: ga, Prev: prev, Cur: cur, PrevSite: ps, CurSite: cs})
}

func topPC(s Site) int {
	if len(s.Stack) == 0 {
		return -1
	}
	return s.Stack[0].PC
}

// Finish implements Analyzer (the race check needs no final pass).
func (d *RaceDetector) Finish(rt *core.Runtime) error { return nil }

// canonKey orders the two sides of a race independently of which was
// observed first during replay.
func canonKey(a access) string {
	return fmt.Sprintf("%s+%d/%v/%d", a.site().Func(), topPC(a.site()), a.write, a.tid)
}

// Findings implements Analyzer. The report is canonical: the two sides of
// each race are ordered by site key rather than observation order, and the
// kind is symmetric ("write/write" or "read/write"), so the same racing
// pair yields byte-identical findings no matter which access a particular
// replay — whole-trace or segment-folded — happened to deliver first.
func (d *RaceDetector) Findings() []Finding {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]Finding, 0, len(d.st.races))
	for _, r := range d.st.races {
		a, b := r.Prev, r.Cur
		if canonKey(b) < canonKey(a) {
			a, b = b, a
		}
		kind := "read/write"
		if a.write && b.write {
			kind = "write/write"
		}
		out = append(out, Finding{
			Analyzer: "race",
			Kind:     "data-race",
			Addr:     a.addr,
			Size:     int64(a.size),
			Sites:    []Site{a.site(), b.site()},
			Detail: fmt.Sprintf("%s race on %#x between %s (thread %d) and %s (thread %d)",
				kind, a.addr, a.site().Func(), a.tid, b.site().Func(), b.tid),
		})
	}
	sortFindings(out)
	return out
}
