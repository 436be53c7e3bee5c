// Package heap implements iReplayer's deterministic memory allocator
// (§2.2.4) and a libc-like baseline allocator.
//
// The deterministic allocator ("IR-Alloc" in Table 3) makes heap layout a
// pure function of per-thread program order plus the recorded order of
// super-heap block fetches:
//
//   - every thread owns a private heap and two live threads never share one;
//   - per-thread heaps obtain fixed-size blocks from a super heap under a
//     single global lock whose acquisition order is recorded and replayed;
//   - objects are managed in power-of-two size classes with free lists and a
//     bump pointer;
//   - a freed object always returns to the *freeing* thread's free list, so
//     cross-thread frees only influence that thread's subsequent program
//     order.
//
// Consequently no allocation addresses ever need to be recorded — identical
// lock replay yields an identical heap layout. Individual mallocs take no
// lock at all, which is why the paper measures IR-Alloc slightly *faster*
// than the default allocator.
//
// The allocator also hosts the detection substrate of §4: trailing canaries
// in the slack of every object (heap overflow) and per-thread quarantine
// lists with canary-filled payloads (use-after-free).
package heap

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/mem"
)

// NumClasses is the number of power-of-two size classes; class i holds
// objects of MinClassSize << i bytes.
const (
	MinClassSize = 16
	NumClasses   = 9 // 16 .. 4096
	// BlockSize is the super-heap block unit handed to per-thread heaps
	// (scaled down from the paper's 4 MB to suit the virtual arena).
	BlockSize = 64 << 10
	// HeaderSize precedes each object payload; CanarySize follows the
	// payload slack so that every object has at least one guarded byte run.
	HeaderSize = 8
	CanarySize = 8
	// CanaryByte is the known value whose corruption is incontrovertible
	// evidence of an overflow (§4.1, after StackGuard).
	CanaryByte = 0xCA
	// QuarantineFill is how many leading payload bytes of a freed object are
	// canary-filled while quarantined (§4.2, 128 bytes as in the paper).
	QuarantineFill = 128
)

// ClassSize returns the payload capacity of class c.
func ClassSize(c int) int64 { return MinClassSize << c }

// classFor maps a request to its size class, or -1 for large objects.
func classFor(size int64) int {
	for c := 0; c < NumClasses; c++ {
		if size <= ClassSize(c) {
			return c
		}
	}
	return -1
}

// slotSize is the arena footprint of one object of class c.
func slotSize(c int) int64 { return HeaderSize + ClassSize(c) + CanarySize }

// Object describes one live or quarantined allocation.
type Object struct {
	Addr  uint64 // payload address
	Size  int64  // requested size
	Class int    // -1 for large objects
	Slot  int64  // total slot footprint
	Tid   int32  // allocating thread
}

// CanaryRange returns the guarded byte range of the object: the slack
// between the requested size and the end of the slot (including the trailing
// canary word).
func (o Object) CanaryRange() (addr uint64, n int64) {
	payloadCap := o.Slot - HeaderSize - CanarySize
	return o.Addr + uint64(o.Size), payloadCap - o.Size + CanarySize
}

// Violation reports corrupted canaries discovered by a scan.
type Violation struct {
	Object  Object
	Addrs   []uint64 // corrupted byte addresses (capped at mem.MaxWatchpoints)
	UseFree bool     // true: use-after-free; false: buffer overflow
}

func (v Violation) String() string {
	kind := "buffer overflow"
	if v.UseFree {
		kind = "use-after-free"
	}
	addrs := make([]string, len(v.Addrs))
	for i, a := range v.Addrs {
		addrs[i] = fmt.Sprintf("%#x", a)
	}
	return fmt.Sprintf("%s: object %#x (size %d), corrupted at [%s]",
		kind, v.Object.Addr, v.Object.Size, strings.Join(addrs, " "))
}

// Allocator is implemented by both the deterministic heap and the baseline.
type Allocator interface {
	// Malloc allocates size bytes for thread tid; returns 0 on exhaustion.
	Malloc(tid int32, size int64) uint64
	// Calloc allocates zeroed memory.
	Calloc(tid int32, n, size int64) uint64
	// Free releases the object at addr on behalf of tid.
	Free(tid int32, addr uint64) error
	// Snapshot captures allocator metadata at an epoch boundary.
	Snapshot() AllocSnapshot
	// Restore rewinds allocator metadata to a snapshot (rollback).
	Restore(AllocSnapshot)
}

// AllocSnapshot is an opaque allocator checkpoint.
type AllocSnapshot interface{}

// Deterministic is the iReplayer allocator.
type Deterministic struct {
	mem  *mem.Memory
	base uint64
	size int64

	// fetchGate wraps every super-heap block fetch; the runtime injects a
	// function that acquires the recorded super-heap pseudo-lock so that
	// fetch order is replayed identically (§2.2.4). The default runs f
	// directly.
	fetchGate func(tid int32, f func())
	// fetchMu serializes the super-heap bump pointer itself; the recorded
	// gate additionally fixes the order across executions.
	fetchMu sync.Mutex

	superNext int64 // bump offset of the next unfetched block

	// heaps is indexed by thread ID; each entry is touched only by its
	// owning thread (the per-thread-heap property), so no lock is needed on
	// the allocation fast path.
	heaps []*threadHeap

	// metaMu guards the cross-thread bookkeeping (live objects, quarantine);
	// this metadata never influences layout, so the lock does not reintroduce
	// allocation-order nondeterminism.
	metaMu sync.Mutex
	live   map[uint64]Object

	// Detection substrate.
	canaries       bool
	quarantine     bool
	quarantineByte int64 // per-thread quarantine budget in bytes
	onViolation    func(Violation)
	quarantined    map[int32]*quarList
}

type threadHeap struct {
	// For each class: current block bump state and free list.
	bump   [NumClasses]bumpState
	free   [NumClasses][]uint64 // LIFO of slot addresses (header addresses)
	nAlloc int64
	nFree  int64
}

type bumpState struct {
	addr uint64 // next slot address within the current block
	left int64  // bytes remaining in the current block
}

type quarList struct {
	objs  []Object
	total int64
}

// NewDeterministic builds the iReplayer allocator over the heap arena of m.
func NewDeterministic(m *mem.Memory) *Deterministic {
	base, size := m.HeapRange()
	return &Deterministic{
		mem:         m,
		base:        base,
		size:        size,
		fetchGate:   func(_ int32, f func()) { f() },
		heaps:       make([]*threadHeap, m.Config().MaxThreads),
		live:        make(map[uint64]Object),
		quarantined: make(map[int32]*quarList),
	}
}

// SetFetchGate injects the recorded-lock wrapper for super-heap fetches.
func (d *Deterministic) SetFetchGate(gate func(tid int32, f func())) { d.fetchGate = gate }

// EnableCanaries turns on overflow canaries (§4.1).
func (d *Deterministic) EnableCanaries() { d.canaries = true }

// EnableQuarantine turns on use-after-free quarantine with the given
// per-thread byte budget (§4.2).
func (d *Deterministic) EnableQuarantine(budget int64) {
	d.quarantine = true
	d.quarantineByte = budget
}

// SetViolationHandler receives violations found when quarantined objects are
// checked on release.
func (d *Deterministic) SetViolationHandler(fn func(Violation)) { d.onViolation = fn }

// AssignHeap creates tid's private heap. The runtime calls it under the
// recorded thread-creation lock, making heap assignment deterministic; a
// fresh heap is never shared with any other live thread.
func (d *Deterministic) AssignHeap(tid int32) {
	if int(tid) >= len(d.heaps) {
		return
	}
	if d.heaps[tid] == nil {
		d.heaps[tid] = &threadHeap{}
	}
}

// fetchBlock obtains n contiguous bytes from the super heap under the fetch
// gate. Returns 0 when the arena is exhausted.
func (d *Deterministic) fetchBlock(tid int32, n int64) uint64 {
	var addr uint64
	d.fetchGate(tid, func() {
		d.fetchMu.Lock()
		if d.superNext+n <= d.size {
			addr = d.base + uint64(d.superNext)
			d.superNext += n
		}
		d.fetchMu.Unlock()
	})
	return addr
}

// Malloc implements Allocator.
func (d *Deterministic) Malloc(tid int32, size int64) uint64 {
	if size <= 0 {
		size = 1
	}
	if int(tid) >= len(d.heaps) {
		return 0
	}
	th := d.heaps[tid]
	if th == nil {
		d.AssignHeap(tid)
		th = d.heaps[tid]
	}
	c := classFor(size)
	var slotAddr uint64
	var slot int64
	if c >= 0 {
		slot = slotSize(c)
		if n := len(th.free[c]); n > 0 {
			// Reuse from this thread's free list, LIFO (§2.2.4: head of list).
			slotAddr = th.free[c][n-1]
			th.free[c] = th.free[c][:n-1]
		} else {
			bs := &th.bump[c]
			if bs.left < slot {
				blk := d.fetchBlock(tid, BlockSize)
				if blk == 0 {
					return 0
				}
				bs.addr, bs.left = blk, BlockSize
			}
			slotAddr = bs.addr
			bs.addr += uint64(slot)
			bs.left -= slot
		}
	} else {
		// Large object: whole blocks straight from the super heap; the fetch
		// gate orders it deterministically.
		slot = HeaderSize + size + CanarySize
		slot = (slot + BlockSize - 1) &^ (BlockSize - 1)
		slotAddr = d.fetchBlock(tid, slot)
		if slotAddr == 0 {
			return 0
		}
	}
	obj := Object{Addr: slotAddr + HeaderSize, Size: size, Class: c, Slot: slot, Tid: tid}
	d.metaMu.Lock()
	d.live[obj.Addr] = obj
	d.metaMu.Unlock()
	th.nAlloc++
	if d.canaries {
		a, n := obj.CanaryRange()
		d.mem.Memset(a, CanaryByte, int(n))
	}
	return obj.Addr
}

// Calloc implements Allocator.
func (d *Deterministic) Calloc(tid int32, n, size int64) uint64 {
	total := n * size
	addr := d.Malloc(tid, total)
	if addr != 0 {
		d.mem.Memset(addr, 0, int(total))
	}
	return addr
}

// Free implements Allocator. With quarantine enabled, the object is canary-
// filled and parked on the freeing thread's quarantine list; otherwise it is
// pushed to the freeing thread's free list immediately (§2.2.4: frees are
// owned by the current thread regardless of the allocating thread).
func (d *Deterministic) Free(tid int32, addr uint64) error {
	if int(tid) >= len(d.heaps) {
		return fmt.Errorf("heap: free from invalid thread %d", tid)
	}
	d.metaMu.Lock()
	obj, ok := d.live[addr]
	if !ok {
		d.metaMu.Unlock()
		return fmt.Errorf("heap: free of untracked address %#x (double free or wild free)", addr)
	}
	delete(d.live, addr)
	d.metaMu.Unlock()
	th := d.heaps[tid]
	if th == nil {
		d.AssignHeap(tid)
		th = d.heaps[tid]
	}
	th.nFree++
	if d.quarantine {
		fill := obj.Size
		if fill > QuarantineFill {
			fill = QuarantineFill
		}
		d.mem.Memset(obj.Addr, CanaryByte, int(fill))
		d.metaMu.Lock()
		q := d.quarantined[tid]
		if q == nil {
			q = &quarList{}
			d.quarantined[tid] = q
		}
		q.objs = append(q.objs, obj)
		q.total += obj.Slot
		var evicted []Object
		for q.total > d.quarantineByte && len(q.objs) > 0 {
			victim := q.objs[0]
			q.objs = q.objs[1:]
			q.total -= victim.Slot
			evicted = append(evicted, victim)
		}
		d.metaMu.Unlock()
		for _, victim := range evicted {
			if v, bad := d.checkQuarantined(victim); bad && d.onViolation != nil {
				d.onViolation(v)
			}
			d.release(tid, victim)
		}
		return nil
	}
	d.release(tid, obj)
	return nil
}

func (d *Deterministic) release(tid int32, obj Object) {
	if obj.Class >= 0 {
		th := d.heaps[tid]
		th.free[obj.Class] = append(th.free[obj.Class], obj.Addr-HeaderSize)
	}
	// Large objects are not reused in this scaled-down allocator; the arena
	// is sized for the workloads.
}

// LiveObjects returns every live allocation sorted by payload address — the
// allocator-state half of a leak diff: a live object that no reachability
// scan of the address space can find is leaked.
func (d *Deterministic) LiveObjects() []Object {
	d.metaMu.Lock()
	out := make([]Object, 0, len(d.live))
	for _, o := range d.live {
		out = append(out, o)
	}
	d.metaMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Addr < out[j].Addr })
	return out
}

// Stats returns (allocs, frees) per thread for diagnostics.
func (d *Deterministic) Stats(tid int32) (allocs, frees int64) {
	if th := d.heaps[tid]; th != nil {
		return th.nAlloc, th.nFree
	}
	return 0, 0
}

// checkQuarantined verifies the canary fill of a quarantined object.
func (d *Deterministic) checkQuarantined(obj Object) (Violation, bool) {
	fill := obj.Size
	if fill > QuarantineFill {
		fill = QuarantineFill
	}
	b, err := d.mem.ReadBytes(obj.Addr, int(fill))
	if err != nil {
		return Violation{}, false
	}
	var bad []uint64
	for i, v := range b {
		if v != CanaryByte {
			bad = append(bad, obj.Addr+uint64(i))
			if len(bad) >= mem.MaxWatchpoints {
				break
			}
		}
	}
	if len(bad) == 0 {
		return Violation{}, false
	}
	return Violation{Object: obj, Addrs: bad, UseFree: true}, true
}

// ScanCanaries checks every live object's slack canaries (epoch-end overflow
// detection, §4.1) and every quarantined object's payload fill (§4.2).
func (d *Deterministic) ScanCanaries() []Violation {
	var out []Violation
	if d.canaries {
		// Deterministic iteration order for reporting.
		d.metaMu.Lock()
		objs := make(map[uint64]Object, len(d.live))
		addrs := make([]uint64, 0, len(d.live))
		for a, o := range d.live {
			addrs = append(addrs, a)
			objs[a] = o
		}
		d.metaMu.Unlock()
		sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
		for _, a := range addrs {
			obj := objs[a]
			ca, cn := obj.CanaryRange()
			b, err := d.mem.ReadBytes(ca, int(cn))
			if err != nil {
				continue
			}
			var bad []uint64
			for i, v := range b {
				if v != CanaryByte {
					bad = append(bad, ca+uint64(i))
					if len(bad) >= mem.MaxWatchpoints {
						break
					}
				}
			}
			if len(bad) > 0 {
				out = append(out, Violation{Object: obj, Addrs: bad})
			}
		}
	}
	if d.quarantine {
		d.metaMu.Lock()
		var all []Object
		tids := make([]int32, 0, len(d.quarantined))
		for t := range d.quarantined {
			tids = append(tids, t)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		for _, t := range tids {
			all = append(all, d.quarantined[t].objs...)
		}
		d.metaMu.Unlock()
		for _, obj := range all {
			if v, bad := d.checkQuarantined(obj); bad {
				out = append(out, v)
			}
		}
	}
	return out
}

// detSnapshot is Deterministic's checkpoint. Allocator metadata lives on the
// Go side (not in VM memory), so rollback must rewind it explicitly; the
// paper gets this for free because its allocator state is inside the copied
// writable memory.
type detSnapshot struct {
	superNext   int64
	heaps       []*threadHeap
	live        map[uint64]Object
	quarantined map[int32]*quarList
}

// Snapshot implements Allocator. Callers snapshot only at epoch boundaries
// when every thread is quiescent.
func (d *Deterministic) Snapshot() AllocSnapshot {
	d.metaMu.Lock()
	defer d.metaMu.Unlock()
	s := &detSnapshot{
		superNext:   d.superNext,
		heaps:       make([]*threadHeap, len(d.heaps)),
		live:        make(map[uint64]Object, len(d.live)),
		quarantined: make(map[int32]*quarList, len(d.quarantined)),
	}
	for t, th := range d.heaps {
		if th == nil {
			continue
		}
		cp := &threadHeap{bump: th.bump, nAlloc: th.nAlloc, nFree: th.nFree}
		for c := range th.free {
			cp.free[c] = append([]uint64(nil), th.free[c]...)
		}
		s.heaps[t] = cp
	}
	for a, o := range d.live {
		s.live[a] = o
	}
	for t, q := range d.quarantined {
		s.quarantined[t] = &quarList{objs: append([]Object(nil), q.objs...), total: q.total}
	}
	return s
}

// Restore implements Allocator.
func (d *Deterministic) Restore(snap AllocSnapshot) {
	s := snap.(*detSnapshot)
	d.metaMu.Lock()
	defer d.metaMu.Unlock()
	d.superNext = s.superNext
	for t := range d.heaps {
		d.heaps[t] = nil
	}
	for t, th := range s.heaps {
		if th == nil {
			continue
		}
		cp := &threadHeap{bump: th.bump, nAlloc: th.nAlloc, nFree: th.nFree}
		for c := range th.free {
			cp.free[c] = append([]uint64(nil), th.free[c]...)
		}
		d.heaps[t] = cp
	}
	d.live = make(map[uint64]Object, len(s.live))
	for a, o := range s.live {
		d.live[a] = o
	}
	d.quarantined = make(map[int32]*quarList, len(s.quarantined))
	for t, q := range s.quarantined {
		d.quarantined[t] = &quarList{objs: append([]Object(nil), q.objs...), total: q.total}
	}
}
