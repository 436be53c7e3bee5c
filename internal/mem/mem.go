// Package mem implements the virtual address space shared by all vthreads of
// a program under test: a globals segment, a heap arena, and per-thread stack
// slots.
//
// It stands in for the writable memory of the native process that iReplayer
// checkpoints by parsing /proc/self/maps (§3.1). Live memory is three flat
// byte slices, so a guest load is one bounds check and one slice expression.
// Checkpoints are not flat: a Snapshot (snapshot.go) is a table of immutable
// 4 KiB pages, and the address space keeps one dirty flag per page, set by
// every guest store. Taking a snapshot copies the pages stored to since the
// previous one and shares every other page with it; rollback copies back the
// pages that are dirty or whose page differs; the checkpoint codec, the fold
// and the stitching check skip pages two snapshots share by pointer. All of
// them cost what an epoch wrote, not the size of the address space. The
// identity check of Table 1 is still a byte-level diff of flat heap images
// (HeapImage).
//
// Every store reaches the slices through one function, storeWindow, which
// marks the pages it hands out; there is no other way to write guest memory,
// so no writer can forget the mark.
//
// Address spaces are recycled (recycle.go). New may hand out the storage of
// a released space of the same Config instead of allocating; Release
// re-establishes "all zero, every flag clear" by restoring the all-zero
// snapshot, which costs the pages the run dirtied, not the 21 MiB a fresh
// space would cost to allocate and clear. A released Memory faults on every
// access.
//
// Concurrent unsynchronized access from multiple vthreads is intentional:
// races in the program under test manifest as real interleavings on these
// slices, which is what the divergence-search replay machinery (§3.5) must
// cope with. The dirty flags are the exception: they are atomics, written
// idempotently, so two threads storing to one page never lose a mark.
package mem

import (
	"fmt"
	"sync/atomic"
)

// Segment base addresses. Virtual addresses are uint64 and never collide
// across segments; address 0 is unmapped so that null dereferences fault.
const (
	GlobalBase uint64 = 0x1000_0000
	HeapBase   uint64 = 0x4000_0000
	StackBase  uint64 = 0x7000_0000
)

// Config sizes the address space.
type Config struct {
	// GlobalSize is the byte size of the globals segment.
	GlobalSize int64
	// HeapSize is the byte size of the heap arena.
	HeapSize int64
	// StackSlot is the byte size of one thread stack.
	StackSlot int64
	// MaxThreads bounds the number of stack slots.
	MaxThreads int
}

// DefaultConfig returns a laptop-scale address space adequate for every
// workload in this repository.
func DefaultConfig() Config {
	return Config{
		GlobalSize: 1 << 20,  // 1 MiB of globals
		HeapSize:   16 << 20, // 16 MiB heap arena
		StackSlot:  64 << 10, // 64 KiB per-thread stacks
		MaxThreads: 64,
	}
}

// Fault describes an invalid memory access.
type Fault struct {
	Addr uint64
	Size int
	Op   string // "load" or "store"
}

func (f *Fault) Error() string {
	return fmt.Sprintf("memory fault: %s of %d bytes at %#x", f.Op, f.Size, f.Addr)
}

// MaxWatchpoints mirrors the four hardware debug registers the paper uses
// via perf_event_open (§4.1): at most four addresses can be watched per
// re-execution.
const MaxWatchpoints = 4

// Watchpoint is an armed address range; Hit is invoked synchronously by the
// storing thread.
type Watchpoint struct {
	Addr uint64
	Size int
}

// WatchHit reports a store that touched a watched range.
type WatchHit struct {
	Watch Watchpoint
	Addr  uint64
	Size  int
}

// Memory is one program's address space.
type Memory struct {
	cfg     Config
	globals []byte
	heap    []byte
	stacks  []byte // MaxThreads slots of StackSlot bytes each

	// dirty holds one flag per page of each segment (globals, heap, stacks);
	// base is the snapshot live memory equals on every page whose flag is
	// clear. See snapshot.go for the invariant and who maintains it.
	dirty [numSegs][]atomic.Uint32
	base  *Snapshot
	// geom is the Config's shared zero snapshot and free list; nil once
	// Release has given the storage back.
	geom *geometry

	watches  [MaxWatchpoints]Watchpoint
	nwatches int
	onWatch  func(WatchHit)
}

// New builds an address space from cfg: all zero, every dirty flag clear.
// The storage may be a released space of the same Config (recycle.go), in
// which case Release has already put it in exactly that state.
func New(cfg Config) *Memory {
	if cfg.GlobalSize <= 0 || cfg.HeapSize <= 0 || cfg.StackSlot <= 0 || cfg.MaxThreads <= 0 {
		panic("mem: invalid config")
	}
	b, g := acquire(cfg)
	// Every page starts clean against the all-zero snapshot of the geometry.
	return &Memory{
		cfg:     cfg,
		globals: b.segs[segGlobals],
		heap:    b.segs[segHeap],
		stacks:  b.segs[segStacks],
		dirty:   b.dirty,
		base:    g.zero,
		geom:    g,
	}
}

// Config returns the sizing used to build this address space.
func (m *Memory) Config() Config { return m.cfg }

// HeapRange returns the [base, base+size) range of the heap arena.
func (m *Memory) HeapRange() (base uint64, size int64) {
	return HeapBase, m.cfg.HeapSize
}

// StackRange returns the stack slot range for thread slot i.
func (m *Memory) StackRange(slot int) (base uint64, size int64) {
	if slot < 0 || slot >= m.cfg.MaxThreads {
		panic("mem: stack slot out of range")
	}
	return StackBase + uint64(int64(slot)*m.cfg.StackSlot), m.cfg.StackSlot
}

// loadWindow maps addr to a read-only backing slice window of length size.
func (m *Memory) loadWindow(addr uint64, size int, op string) ([]byte, error) {
	switch {
	case addr >= GlobalBase && addr+uint64(size) <= GlobalBase+uint64(len(m.globals)):
		off := addr - GlobalBase
		return m.globals[off : off+uint64(size)], nil
	case addr >= HeapBase && addr+uint64(size) <= HeapBase+uint64(len(m.heap)):
		off := addr - HeapBase
		return m.heap[off : off+uint64(size)], nil
	case addr >= StackBase && addr+uint64(size) <= StackBase+uint64(len(m.stacks)):
		off := addr - StackBase
		return m.stacks[off : off+uint64(size)], nil
	}
	return nil, &Fault{Addr: addr, Size: size, Op: op}
}

// storeWindow maps addr to a writable backing slice window of length size
// and marks every page the window spans dirty. It is the only function that
// hands out a writable view of guest memory.
func (m *Memory) storeWindow(addr uint64, size int) ([]byte, error) {
	switch {
	case addr >= GlobalBase && addr+uint64(size) <= GlobalBase+uint64(len(m.globals)):
		off := addr - GlobalBase
		markDirty(m.dirty[segGlobals], off, size)
		return m.globals[off : off+uint64(size)], nil
	case addr >= HeapBase && addr+uint64(size) <= HeapBase+uint64(len(m.heap)):
		off := addr - HeapBase
		markDirty(m.dirty[segHeap], off, size)
		return m.heap[off : off+uint64(size)], nil
	case addr >= StackBase && addr+uint64(size) <= StackBase+uint64(len(m.stacks)):
		off := addr - StackBase
		markDirty(m.dirty[segStacks], off, size)
		return m.stacks[off : off+uint64(size)], nil
	}
	return nil, &Fault{Addr: addr, Size: size, Op: "store"}
}

// markDirty flags the pages covering [off, off+size). Several vthreads store
// at once, so a flag is only ever written with the one value, and only when
// clear: after a page's first store in an epoch the mark is a plain load.
// Flags are read and cleared at quiescent boundaries only (Snapshot, Restore).
func markDirty(flags []atomic.Uint32, off uint64, size int) {
	if size <= 0 {
		return
	}
	for p, last := off>>pageShift, (off+uint64(size)-1)>>pageShift; p <= last; p++ {
		if flags[p].Load() == 0 {
			flags[p].Store(1)
		}
	}
}

// Valid reports whether [addr, addr+size) is mapped.
func (m *Memory) Valid(addr uint64, size int) bool {
	_, err := m.loadWindow(addr, size, "probe")
	return err == nil
}

// Load8 reads one byte.
func (m *Memory) Load8(addr uint64) (uint64, error) {
	w, err := m.loadWindow(addr, 1, "load")
	if err != nil {
		return 0, err
	}
	return uint64(w[0]), nil
}

// Load64 reads a little-endian 64-bit word.
func (m *Memory) Load64(addr uint64) (uint64, error) {
	w, err := m.loadWindow(addr, 8, "load")
	if err != nil {
		return 0, err
	}
	// Inlined little-endian decode; races between vthreads are modeled
	// hardware behaviour, so no synchronization here.
	return uint64(w[0]) | uint64(w[1])<<8 | uint64(w[2])<<16 | uint64(w[3])<<24 |
		uint64(w[4])<<32 | uint64(w[5])<<40 | uint64(w[6])<<48 | uint64(w[7])<<56, nil
}

// Store8 writes one byte.
func (m *Memory) Store8(addr uint64, v uint64) error {
	w, err := m.storeWindow(addr, 1)
	if err != nil {
		return err
	}
	w[0] = byte(v)
	m.checkWatch(addr, 1)
	return nil
}

// Store64 writes a little-endian 64-bit word.
func (m *Memory) Store64(addr uint64, v uint64) error {
	w, err := m.storeWindow(addr, 8)
	if err != nil {
		return err
	}
	w[0] = byte(v)
	w[1] = byte(v >> 8)
	w[2] = byte(v >> 16)
	w[3] = byte(v >> 24)
	w[4] = byte(v >> 32)
	w[5] = byte(v >> 40)
	w[6] = byte(v >> 48)
	w[7] = byte(v >> 56)
	m.checkWatch(addr, 8)
	return nil
}

// ReadBytes copies out of memory.
func (m *Memory) ReadBytes(addr uint64, n int) ([]byte, error) {
	w, err := m.loadWindow(addr, n, "load")
	if err != nil {
		return nil, err
	}
	out := make([]byte, n)
	copy(out, w)
	return out, nil
}

// WriteBytes copies into memory.
func (m *Memory) WriteBytes(addr uint64, b []byte) error {
	w, err := m.storeWindow(addr, len(b))
	if err != nil {
		return err
	}
	copy(w, b)
	m.checkWatch(addr, len(b))
	return nil
}

// Memset fills [addr, addr+n) with v.
func (m *Memory) Memset(addr uint64, v byte, n int) error {
	w, err := m.storeWindow(addr, n)
	if err != nil {
		return err
	}
	for i := range w {
		w[i] = v
	}
	m.checkWatch(addr, n)
	return nil
}

// Memcpy copies n bytes from src to dst within the address space.
func (m *Memory) Memcpy(dst, src uint64, n int) error {
	s, err := m.loadWindow(src, n, "load")
	if err != nil {
		return err
	}
	d, err := m.storeWindow(dst, n)
	if err != nil {
		return err
	}
	copy(d, s)
	m.checkWatch(dst, n)
	return nil
}

func (m *Memory) checkWatch(addr uint64, size int) {
	if m.nwatches == 0 {
		return
	}
	for i := 0; i < m.nwatches; i++ {
		w := m.watches[i]
		if addr < w.Addr+uint64(w.Size) && w.Addr < addr+uint64(size) {
			if m.onWatch != nil {
				m.onWatch(WatchHit{Watch: w, Addr: addr, Size: size})
			}
		}
	}
}

// SetWatchHandler installs the callback invoked on watchpoint hits.
func (m *Memory) SetWatchHandler(fn func(WatchHit)) { m.onWatch = fn }

// ArmWatchpoint arms a watchpoint; it fails once all MaxWatchpoints slots are
// occupied, mirroring the hardware debug-register limit.
func (m *Memory) ArmWatchpoint(addr uint64, size int) error {
	if m.nwatches >= MaxWatchpoints {
		return fmt.Errorf("mem: all %d watchpoints in use", MaxWatchpoints)
	}
	m.watches[m.nwatches] = Watchpoint{Addr: addr, Size: size}
	m.nwatches++
	return nil
}

// ClearWatchpoints disarms all watchpoints.
func (m *Memory) ClearWatchpoints() { m.nwatches = 0 }

// Watchpoints returns the armed watchpoints.
func (m *Memory) Watchpoints() []Watchpoint {
	out := make([]Watchpoint, m.nwatches)
	copy(out, m.watches[:m.nwatches])
	return out
}
