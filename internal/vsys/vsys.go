// Package vsys is the virtual operating system beneath programs under test:
// an in-memory filesystem with Unix-style lowest-free descriptor allocation,
// simulated sockets fed by an external nondeterministic stream, a virtual
// clock, and a process identity.
//
// It exists so that iReplayer's system-call handling (§2.2.3) can be
// implemented faithfully: the five-way classification (repeatable /
// recordable / revocable / deferrable / irrevocable), position-based file
// replay, close/munmap deferral, and the descriptor-reuse hazard that makes
// deferral necessary in the in-situ setting.
package vsys

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
)

// Syscall numbers understood by the virtual OS.
const (
	// SysGetpid () → pid. Repeatable: in-situ replay runs in the same
	// process, so the value never changes.
	SysGetpid int64 = iota + 1
	// SysGettimeofday () → virtual microseconds. Recordable.
	SysGettimeofday
	// SysOpen (pathAddr, pathLen) → fd. Performed during recording; during
	// replay the recorded fd is returned without re-opening (the file is
	// still open in-situ).
	SysOpen
	// SysClose (fd) → 0. Deferrable: executed at the next epoch boundary so
	// descriptors cannot be reused within an epoch (§2.2.3).
	SysClose
	// SysRead (fd, bufAddr, n) → bytes read. Revocable for files: re-issued
	// during replay after position recovery. Recordable for sockets.
	SysRead
	// SysWrite (fd, bufAddr, n) → bytes written. Revocable for files,
	// recordable for sockets.
	SysWrite
	// SysLseek (fd, off, whence) → new position. A repositioning lseek is
	// irrevocable (§2.2.3: a write after lseek destroys data earlier reads
	// depended on); lseek(fd, 0, SEEK_CUR) is repeatable.
	SysLseek
	// SysSocket () → fd connected to a simulated external peer. Recordable.
	SysSocket
	// SysMmap (size) → address of a fresh mapping. Handled by the runtime's
	// deterministic mapper.
	SysMmap
	// SysMunmap (addr, size) → 0. Deferrable, like close.
	SysMunmap
	// SysFork () → child pid. Irrevocable: closes the epoch.
	SysFork
	// SysExecve (pathAddr, pathLen) → never returns meaningfully.
	// Irrevocable.
	SysExecve
	// SysFcntl (fd, cmd) → cmd-dependent. Classified per flag (§2.2.3):
	// F_GETOWN repeatable, F_DUPFD recordable.
	SysFcntl
	// SysRand () → nondeterministic 64-bit value (models reads of
	// /dev/urandom). Recordable.
	SysRand
)

// Fcntl command values.
const (
	FGetOwn int64 = 1
	FDupFD  int64 = 2
)

// Lseek whence values.
const (
	SeekSet int64 = 0
	SeekCur int64 = 1
	SeekEnd int64 = 2
)

// Class is a syscall's replay classification (§2.2.3).
type Class uint8

const (
	// Repeatable calls return identical results in-situ with no handling.
	Repeatable Class = iota + 1
	// Recordable calls have their results logged and returned during replay
	// without re-invocation.
	Recordable
	// Revocable calls are re-issued during replay after state recovery
	// (file positions).
	Revocable
	// Deferrable calls irrevocably change state but can be postponed to the
	// next epoch boundary.
	Deferrable
	// Irrevocable calls close the current epoch.
	Irrevocable
)

func (c Class) String() string {
	switch c {
	case Repeatable:
		return "repeatable"
	case Recordable:
		return "recordable"
	case Revocable:
		return "revocable"
	case Deferrable:
		return "deferrable"
	case Irrevocable:
		return "irrevocable"
	}
	return fmt.Sprintf("class(%d)", uint8(c))
}

// FDKind distinguishes descriptor types.
type FDKind uint8

const (
	FDFile FDKind = iota + 1
	FDSocket
)

// DefaultMaxFDs is the default open-file limit; the runtime raises it at
// initialization because deferring close() can exceed the default (§2.2.3).
const DefaultMaxFDs = 64

// File is an in-memory VFS file. Contents deliberately persist across
// rollback: like the paper, file data is not checkpointed — replayed writes
// reproduce it, only positions are recovered.
type File struct {
	Name string
	Data []byte
}

// Socket models a connection to an external peer that produces a
// nondeterministic byte stream (the reason socket reads are recordable).
type Socket struct {
	rng      *rand.Rand
	consumed int64
	sent     int64
}

type fd struct {
	kind FDKind
	file *File
	pos  int64
	sock *Socket
}

// OS is one program's virtual operating system.
type OS struct {
	mu     sync.Mutex
	pid    int64
	clock  int64 // virtual microseconds; advances on every query
	step   int64
	maxFDs int
	fds    map[int64]*fd
	files  map[string]*File
	// entropy drives sockets and SysRand; seeded from the host for genuine
	// run-to-run nondeterminism (that is the point: these results must be
	// recorded to replay identically).
	entropy *rand.Rand
}

// New creates a virtual OS. seed drives external nondeterminism; production
// use passes a host-derived seed, tests pass a constant.
func New(pid int64, seed int64) *OS {
	return &OS{
		pid:     pid,
		clock:   1_000_000,
		step:    13,
		maxFDs:  DefaultMaxFDs,
		fds:     make(map[int64]*fd),
		files:   make(map[string]*File),
		entropy: rand.New(rand.NewSource(seed)),
	}
}

// RaiseFDLimit lifts the descriptor limit, as iReplayer does during
// initialization to absorb deferred closes.
func (o *OS) RaiseFDLimit(n int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if n > o.maxFDs {
		o.maxFDs = n
	}
}

// FDLimit returns the current descriptor limit.
func (o *OS) FDLimit() int {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.maxFDs
}

// AddFile installs a file into the VFS (workload setup).
func (o *OS) AddFile(name string, data []byte) {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.files[name] = &File{Name: name, Data: data}
}

// FileData returns a copy of a VFS file's contents.
func (o *OS) FileData(name string) ([]byte, bool) {
	o.mu.Lock()
	defer o.mu.Unlock()
	f, ok := o.files[name]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(f.Data))
	copy(out, f.Data)
	return out, true
}

// Classify returns the replay class of a syscall invocation. Some calls are
// classified by argument (fcntl flags, lseek whence), per §2.2.3.
func (o *OS) Classify(num int64, args []uint64) Class {
	switch num {
	case SysGetpid:
		return Repeatable
	case SysGettimeofday, SysSocket, SysRand:
		return Recordable
	case SysOpen:
		// Performed once; replay returns the recorded descriptor.
		return Recordable
	case SysRead, SysWrite:
		if f := o.lookup(args); f != nil && f.kind == FDSocket {
			return Recordable
		}
		return Revocable
	case SysLseek:
		if len(args) >= 3 && int64(args[2]) == SeekCur && int64(args[1]) == 0 {
			return Repeatable // pure position query
		}
		return Irrevocable
	case SysClose, SysMunmap:
		return Deferrable
	case SysFork, SysExecve:
		return Irrevocable
	case SysFcntl:
		if len(args) >= 2 && int64(args[1]) == FGetOwn {
			return Repeatable
		}
		return Recordable
	case SysMmap:
		// Served by the deterministic allocator, so re-execution during
		// replay reproduces the same mapping: revocable.
		return Revocable
	}
	return Irrevocable
}

func (o *OS) lookup(args []uint64) *fd {
	if len(args) == 0 {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.fds[int64(args[0])]
}

// allocFD returns the lowest free descriptor — the Unix rule that creates
// the paper's open(1)/close(1)/open(2) reuse hazard.
func (o *OS) allocFD() (int64, error) {
	for i := int64(3); i < int64(o.maxFDs); i++ { // 0-2 reserved, as on Unix
		if _, used := o.fds[i]; !used {
			return i, nil
		}
	}
	return -1, fmt.Errorf("vsys: descriptor limit %d exhausted", o.maxFDs)
}

// Pid implements getpid.
func (o *OS) Pid() int64 { return o.pid }

// Gettimeofday returns the advancing virtual clock.
func (o *OS) Gettimeofday() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.clock += o.step
	return o.clock
}

// Rand returns external entropy.
func (o *OS) Rand() uint64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.entropy.Uint64()
}

// Open opens a VFS file, creating it if absent.
func (o *OS) Open(path string) (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	f, ok := o.files[path]
	if !ok {
		f = &File{Name: path}
		o.files[path] = f
	}
	n, err := o.allocFD()
	if err != nil {
		return -1, err
	}
	o.fds[n] = &fd{kind: FDFile, file: f}
	return n, nil
}

// OpenAt opens a VFS file at a specific descriptor, creating the file if
// absent and replacing any descriptor already installed at fdn. It exists
// for offline trace replay: a recorded open is classified recordable (the
// in-situ replay finds the file still open from the original execution), but
// a replay in a fresh process must materialize the descriptor itself — at
// the recorded number, so that concurrent opens need no ordering, and at
// position zero, which is what a fresh open would have. Re-invocation on a
// divergence retry simply resets the position.
func (o *OS) OpenAt(path string, fdn int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if fdn < 3 || fdn >= int64(o.maxFDs) {
		return fmt.Errorf("vsys: open at out-of-range fd %d", fdn)
	}
	f, ok := o.files[path]
	if !ok {
		f = &File{Name: path}
		o.files[path] = f
	}
	o.fds[fdn] = &fd{kind: FDFile, file: f}
	return nil
}

// Socket opens a descriptor connected to a fresh simulated peer.
func (o *OS) Socket() (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	n, err := o.allocFD()
	if err != nil {
		return -1, err
	}
	o.fds[n] = &fd{kind: FDSocket, sock: &Socket{rng: rand.New(rand.NewSource(o.entropy.Int63()))}}
	return n, nil
}

// Close releases a descriptor immediately. The runtime defers calls here
// until the next epoch boundary.
func (o *OS) Close(n int64) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.fds[n]; !ok {
		return fmt.Errorf("vsys: close of closed fd %d", n)
	}
	delete(o.fds, n)
	return nil
}

// Read reads up to n bytes; for files it advances the position, for sockets
// it consumes the peer's nondeterministic stream.
func (o *OS) Read(fdn int64, n int) ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	f, ok := o.fds[fdn]
	if !ok {
		return nil, fmt.Errorf("vsys: read of bad fd %d", fdn)
	}
	switch f.kind {
	case FDFile:
		if f.pos >= int64(len(f.file.Data)) {
			return nil, nil // EOF
		}
		end := f.pos + int64(n)
		if end > int64(len(f.file.Data)) {
			end = int64(len(f.file.Data))
		}
		out := make([]byte, end-f.pos)
		copy(out, f.file.Data[f.pos:end])
		f.pos = end
		return out, nil
	case FDSocket:
		out := make([]byte, n)
		for i := range out {
			out[i] = byte(f.sock.rng.Intn(256))
		}
		f.sock.consumed += int64(n)
		return out, nil
	}
	return nil, fmt.Errorf("vsys: read of unknown fd kind")
}

// Write writes bytes; file writes extend the file as needed.
func (o *OS) Write(fdn int64, b []byte) (int, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	f, ok := o.fds[fdn]
	if !ok {
		return 0, fmt.Errorf("vsys: write of bad fd %d", fdn)
	}
	switch f.kind {
	case FDFile:
		end := f.pos + int64(len(b))
		if end > int64(len(f.file.Data)) {
			grown := make([]byte, end)
			copy(grown, f.file.Data)
			f.file.Data = grown
		}
		copy(f.file.Data[f.pos:end], b)
		f.pos = end
		return len(b), nil
	case FDSocket:
		f.sock.sent += int64(len(b))
		return len(b), nil
	}
	return 0, fmt.Errorf("vsys: write of unknown fd kind")
}

// Lseek repositions a file descriptor.
func (o *OS) Lseek(fdn, off, whence int64) (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	f, ok := o.fds[fdn]
	if !ok || f.kind != FDFile {
		return -1, fmt.Errorf("vsys: lseek of bad fd %d", fdn)
	}
	var base int64
	switch whence {
	case SeekSet:
		base = 0
	case SeekCur:
		base = f.pos
	case SeekEnd:
		base = int64(len(f.file.Data))
	default:
		return -1, fmt.Errorf("vsys: bad whence %d", whence)
	}
	if base+off < 0 {
		return -1, fmt.Errorf("vsys: negative seek")
	}
	f.pos = base + off
	return f.pos, nil
}

// DupFD implements fcntl(F_DUPFD).
func (o *OS) DupFD(fdn int64) (int64, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	src, ok := o.fds[fdn]
	if !ok {
		return -1, fmt.Errorf("vsys: dup of bad fd %d", fdn)
	}
	n, err := o.allocFD()
	if err != nil {
		return -1, err
	}
	dup := *src
	o.fds[n] = &dup
	return n, nil
}

// Fork models fork(2): it allocates a child pid. The runtime treats it as
// irrevocable and closes the epoch before invoking it.
func (o *OS) Fork() int64 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.pid + 1 + o.entropy.Int63n(1000)
}

// RestorePositions re-seeks every still-open descriptor to its checkpointed
// position (rollback, §3.4: lseek with SEEK_SET on every descriptor).
func (o *OS) RestorePositions(fds []FDState) {
	o.mu.Lock()
	defer o.mu.Unlock()
	for _, s := range fds {
		if f, ok := o.fds[s.FD]; ok && f.kind == FDFile {
			f.pos = s.Pos
		}
	}
}

// FDState is one open file descriptor's checkpointed identity: which VFS
// file it refers to and its position.
type FDState struct {
	FD   int64
	Path string
	Pos  int64
}

// State is the virtual filesystem's checkpoint: the open file-descriptor
// table, and optionally the file contents. The descriptor positions are the
// per-epoch checkpoint state for revocable IO (§3.1); with the contents it
// is what a mid-trace replay resume needs beyond the recorded event log —
// revocable IO re-issues against these files at these positions. Socket
// descriptors are excluded: socket IO is recordable and replays from the log
// without touching the descriptor table.
type State struct {
	Files []File
	FDs   []FDState
}

// CheckpointState captures the descriptor table and, with files, deep-copies
// every file's contents, as a persisted checkpoint needs. Files are emitted
// sorted by name and descriptors ascending, so the state is encode-stable.
// Call only while the world is quiescent.
func (o *OS) CheckpointState(files bool) *State {
	o.mu.Lock()
	defer o.mu.Unlock()
	st := &State{}
	if files {
		names := make([]string, 0, len(o.files))
		for n := range o.files {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			st.Files = append(st.Files, File{Name: n, Data: append([]byte(nil), o.files[n].Data...)})
		}
	}
	fdns := make([]int64, 0, len(o.fds))
	for n, f := range o.fds {
		if f.kind == FDFile {
			fdns = append(fdns, n)
		}
	}
	sort.Slice(fdns, func(i, j int) bool { return fdns[i] < fdns[j] })
	for _, n := range fdns {
		f := o.fds[n]
		st.FDs = append(st.FDs, FDState{FD: n, Path: f.file.Name, Pos: f.pos})
	}
	return st
}

// RestoreState replaces the VFS contents and file-descriptor table with a
// checkpointed state (mid-trace replay resume). Existing files and file
// descriptors are discarded; st is not retained.
func (o *OS) RestoreState(st *State) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	o.files = make(map[string]*File, len(st.Files))
	for _, f := range st.Files {
		o.files[f.Name] = &File{Name: f.Name, Data: append([]byte(nil), f.Data...)}
	}
	for n, f := range o.fds {
		if f.kind == FDFile {
			delete(o.fds, n)
		}
	}
	for _, fs := range st.FDs {
		f, ok := o.files[fs.Path]
		if !ok {
			return fmt.Errorf("vsys: checkpointed fd %d refers to unknown file %q", fs.FD, fs.Path)
		}
		if fs.FD < 3 || fs.FD >= int64(o.maxFDs) {
			return fmt.Errorf("vsys: checkpointed fd %d out of range", fs.FD)
		}
		o.fds[fs.FD] = &fd{kind: FDFile, file: f, pos: fs.Pos}
	}
	return nil
}

// SyscallName returns a mnemonic for diagnostics.
func SyscallName(num int64) string {
	switch num {
	case SysGetpid:
		return "getpid"
	case SysGettimeofday:
		return "gettimeofday"
	case SysOpen:
		return "open"
	case SysClose:
		return "close"
	case SysRead:
		return "read"
	case SysWrite:
		return "write"
	case SysLseek:
		return "lseek"
	case SysSocket:
		return "socket"
	case SysMmap:
		return "mmap"
	case SysMunmap:
		return "munmap"
	case SysFork:
		return "fork"
	case SysExecve:
		return "execve"
	case SysFcntl:
		return "fcntl"
	case SysRand:
		return "rand"
	}
	return fmt.Sprintf("sys(%d)", num)
}
