package heap

import (
	"fmt"
	"math/rand"
	"sync"

	"repro/internal/mem"
)

// LibC is the baseline allocator: one global heap behind one global lock,
// with ASLR-style placement noise. It models the default Linux allocator in
// the evaluation:
//
//   - Table 1 "Orig" row: two executions of the same program produce
//     different heap images, because the arena base is randomized per
//     process (ASLR, §2.2.4) and racing threads interleave differently on
//     the shared free lists;
//   - Table 3 normalization base: every malloc/free pays a global lock
//     acquisition, which is the contention IR-Alloc removes.
type LibC struct {
	mu   sync.Mutex
	mem  *mem.Memory
	base uint64
	size int64

	next int64
	free [NumClasses][]uint64
	live map[uint64]Object

	// lockDelay spins to model lock-acquisition plus madvise cost per
	// operation (the overhead the paper's custom heap avoids).
	lockDelay int
}

// NewLibC builds a baseline allocator; aslrSeed randomizes the arena base.
// Pass a host-entropy seed to model per-process ASLR, or a constant for a
// deterministic baseline.
func NewLibC(m *mem.Memory, aslrSeed int64) *LibC {
	base, size := m.HeapRange()
	rng := rand.New(rand.NewSource(aslrSeed))
	// Randomize the start offset within the first quarter of the arena,
	// 16-byte aligned: the ASLR displacement that shifts every address.
	off := rng.Int63n(size/4) &^ 15
	return &LibC{
		mem:       m,
		base:      base + uint64(off),
		size:      size - off,
		live:      make(map[uint64]Object),
		lockDelay: 24,
	}
}

// Malloc implements Allocator with a global lock.
func (l *LibC) Malloc(tid int32, size int64) uint64 {
	if size <= 0 {
		size = 1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spin()
	c := classFor(size)
	var slotAddr uint64
	var slot int64
	if c >= 0 {
		slot = slotSize(c)
		if n := len(l.free[c]); n > 0 {
			slotAddr = l.free[c][n-1]
			l.free[c] = l.free[c][:n-1]
		}
	} else {
		slot = HeaderSize + size + CanarySize
		slot = (slot + 15) &^ 15
	}
	if slotAddr == 0 {
		if l.next+slot > l.size {
			return 0
		}
		slotAddr = l.base + uint64(l.next)
		l.next += slot
	}
	obj := Object{Addr: slotAddr + HeaderSize, Size: size, Class: c, Slot: slot, Tid: tid}
	l.live[obj.Addr] = obj
	return obj.Addr
}

// Calloc implements Allocator.
func (l *LibC) Calloc(tid int32, n, size int64) uint64 {
	total := n * size
	addr := l.Malloc(tid, total)
	if addr != 0 {
		l.mem.Memset(addr, 0, int(total))
	}
	return addr
}

// Free implements Allocator: freed objects go to the *shared* free lists, so
// reuse order depends on cross-thread timing — a deliberate source of layout
// nondeterminism.
func (l *LibC) Free(tid int32, addr uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spin()
	obj, ok := l.live[addr]
	if !ok {
		return fmt.Errorf("heap: free of untracked address %#x", addr)
	}
	delete(l.live, addr)
	if obj.Class >= 0 {
		l.free[obj.Class] = append(l.free[obj.Class], addr-HeaderSize)
	}
	return nil
}

func (l *LibC) spin() {
	s := 0
	for i := 0; i < l.lockDelay; i++ {
		s += i
	}
	_ = s
}

type libcSnapshot struct {
	next int64
	free [NumClasses][]uint64
	live map[uint64]Object
}

// Snapshot implements Allocator.
func (l *LibC) Snapshot() AllocSnapshot {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &libcSnapshot{next: l.next, live: make(map[uint64]Object, len(l.live))}
	for c := range l.free {
		s.free[c] = append([]uint64(nil), l.free[c]...)
	}
	for a, o := range l.live {
		s.live[a] = o
	}
	return s
}

// Restore implements Allocator.
func (l *LibC) Restore(snap AllocSnapshot) {
	s := snap.(*libcSnapshot)
	l.mu.Lock()
	defer l.mu.Unlock()
	l.next = s.next
	for c := range l.free {
		l.free[c] = append([]uint64(nil), s.free[c]...)
	}
	l.live = make(map[uint64]Object, len(s.live))
	for a, o := range s.live {
		l.live[a] = o
	}
}
