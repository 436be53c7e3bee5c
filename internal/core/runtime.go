package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/tir"
	"repro/internal/vsys"
)

// Options configures a Runtime.
type Options struct {
	// Mem sizes the virtual address space; zero value uses mem.DefaultConfig.
	Mem mem.Config
	// EventCap is the preallocated per-thread event list size; exhausting it
	// closes the epoch (§3.2). Default 4096.
	EventCap int
	// VarCap is the preallocated per-variable list size. Default 8192.
	VarCap int
	// Seed drives external nondeterminism in the virtual OS (clock identity,
	// socket streams). Production callers pass host entropy.
	Seed int64
	// UseLibCAllocator selects the baseline global-lock allocator with
	// ASLR-style placement noise instead of the deterministic heap —
	// the "Orig"/default-library configuration of the evaluation.
	UseLibCAllocator bool
	// ASLRSeed randomizes the baseline allocator's arena base.
	ASLRSeed int64
	// MaxReplays bounds the divergence search; 0 means unlimited (§3.5.2).
	MaxReplays int
	// DelayOnDivergence inserts random delays at gated points during replay
	// retries, the paper's mechanism for reproducing condvar races (§5.2.1).
	DelayOnDivergence bool
	// DisableRecording turns the runtime into a plain executor: no events
	// are recorded and no epochs are managed beyond program end. Used for
	// baseline timing (the denominator of Table 3).
	DisableRecording bool
	// OnEpochEnd is consulted at every epoch boundary; tools return Replay
	// to trigger in-situ re-execution (Figure 2's "check errors").
	OnEpochEnd func(rt *Runtime, info EpochEndInfo) Decision
	// OnReplayMatched is consulted after a re-execution reproduced the
	// recorded schedule; tools may request another Replay (§4.1: more than
	// four watchpoints) or Abort.
	OnReplayMatched func(rt *Runtime, attempts int) Decision
	// TraceSink, when set, receives every epoch's finalized event log at the
	// epoch boundary, after any tool-driven replays have resolved and before
	// the lists are cleared for the next epoch — the hand-off point between
	// in-situ recording and the persistent trace layer (internal/trace). The
	// log is a deep copy; the sink may retain it. A sink error terminates the
	// run and surfaces from Run. Ignored with DisableRecording.
	TraceSink func(*record.EpochLog) error
	// CheckpointEvery, with CheckpointSink set, persists the epoch-boundary
	// checkpoint the runtime already takes every N completed epochs: the
	// sink receives the state at the beginning of epochs N+1, 2N+1, … Zero
	// disables checkpoint persistence.
	CheckpointEvery int
	// CheckpointSink receives the exported checkpoint (memory snapshot,
	// allocator metadata, thread contexts, shadow synchronization state,
	// filesystem state) at the configured interval, while the world is
	// quiescent, after the preceding epoch's TraceSink flush. The checkpoint
	// is immutable; the sink may retain it. A sink error terminates the run.
	// Ignored with DisableRecording; ignored by the replay constructors.
	CheckpointSink func(*Checkpoint) error
	// FlightRecorder, when set, receives the recording stream alongside the
	// sinks above: every finalized epoch log at the epoch boundary and the
	// checkpoint at the CheckpointEvery cadence (the flight recorder needs
	// checkpoints to trim its ring, so an unset CheckpointEvery defaults to
	// 1 when a recorder is attached — every epoch begins with one). The
	// bounded in-memory/on-disk ring behind it lives in internal/flight;
	// core only feeds it. An error terminates the run like a sink error.
	// Ignored with DisableRecording; ignored by the replay constructors.
	FlightRecorder FlightSink
	// Interrupt, when set, lets a caller cancel a run in flight: it is
	// polled at gated points (thread interception sites and quiescent
	// boundaries) and the first non-nil error it returns becomes the run's
	// terminating cause. A recording stops at the next epoch boundary
	// without flushing the final epoch (the trace is left incomplete, which
	// the store reports); an offline replay unwinds as soon as its threads
	// reach gated points and RunReplay returns the cause. Pass a context's
	// Err method to bind a run to that context — the trace service daemon
	// binds every job this way. The function must be safe for concurrent
	// calls from multiple threads. A deadlocked program whose threads never
	// reach another gated point cannot observe the interrupt.
	Interrupt func() error
	// Observers attach passive tools to the execution (see observer.go):
	// synchronization, thread-lifecycle, allocation, syscall, memory-access,
	// epoch-boundary, and reset callbacks. The replay-time analysis
	// subsystem (internal/analysis) and the §4 detectors (internal/detect)
	// plug in here. Observers survive PrepareReplay, unlike the recording
	// hooks above.
	Observers []Observer
	// Span, when set, is the parent the runtime records its epoch timeline
	// under: one child span per epoch boundary (start of the epoch to the
	// end of its boundary processing) with a quiescence child, one child
	// per rollback attempt, and reason/rollback attributes. Nil disables
	// span recording; latency histograms observe regardless.
	Span *obs.Span
}

// FlightSink is the surface a flight recorder presents to the runtime: the
// same epoch and checkpoint streams TraceSink/CheckpointSink carry, behind
// one attachable value (Options.FlightRecorder). The logs and checkpoints
// are the same immutable copies the plain sinks receive; the recorder may
// retain them.
type FlightSink interface {
	RecordEpoch(*record.EpochLog) error
	RecordCheckpoint(*Checkpoint) error
}

func (o *Options) fill() {
	if o.Mem.MaxThreads == 0 {
		o.Mem = mem.DefaultConfig()
	}
	if o.EventCap == 0 {
		o.EventCap = 4096
	}
	if o.VarCap == 0 {
		o.VarCap = 8192
	}
	if o.FlightRecorder != nil && o.CheckpointEvery <= 0 {
		// A flight ring trims at checkpoints; without a cadence it could
		// never discard anything.
		o.CheckpointEvery = 1
	}
}

// Stats aggregates runtime counters; Table 2 reads LastReplayAttempts,
// Table 3 derives overhead from wall-clock around Run.
type Stats struct {
	Epochs             int64
	Replays            int64
	MatchedReplays     int64
	Divergences        int64
	LastReplayAttempts int
	EventsRecorded     int64
	// QuiescenceNS is the cumulative time the coordinator spent waiting for
	// the world to quiesce at epoch boundaries (including replay retries).
	QuiescenceNS int64
	// CheckpointPages is the number of 4 KiB memory pages the epoch-boundary
	// snapshots copied, summed over the run: the pages each epoch stored to,
	// out of the whole address space a flat copy would have moved.
	CheckpointPages int64
	// Parks is the number of times a thread went to sleep in the runtime — on
	// a contended mutex, a condition, a barrier, a join, a replay turn or an
	// epoch stop — summed from per-thread counters when the stats are read.
	Parks int64
}

// Runtime executes one TIR program under iReplayer semantics.
type Runtime struct {
	mod   *tir.Module
	mem   *mem.Memory
	os    *vsys.OS
	alloc heap.Allocator
	det   *heap.Deterministic // non-nil unless UseLibCAllocator
	opts  Options

	mu       sync.Mutex
	threads  []*Thread
	nextTID  int32
	createMu sync.Mutex

	shadows map[uint64]*syncVar
	// shadowL is the shadow table, copy-on-write: writers (newSyncVarLocked,
	// under rt.mu) publish a fresh slice through the atomic pointer, so the
	// lock-free fast path of varFor reads an immutable snapshot. Shadow
	// creation is rare (first use of each variable); the copy is cheap.
	shadowL atomic.Pointer[[]*syncVar]

	createVar *syncVar
	superVar  *syncVar

	ph atomic.Int32
	// running counts the threads in tsRunning; the thread that takes it to
	// zero posts to quiet, which the coordinator receives from (signal.go).
	running atomic.Int64
	quiet   chan struct{}

	stopMu     sync.Mutex
	stopReason StopReason
	stopTID    int32

	divMu    sync.Mutex
	diverged bool
	divInfo  string
	// attempt is the current re-execution attempt (0 = recording); written
	// under divMu, read lock-free by intercept.
	attempt atomic.Int32

	// intr latches the first non-nil error Options.Interrupt returned; the
	// flag is the lock-free fast path for the per-interception poll.
	intr      atomic.Bool
	intrMu    sync.Mutex
	intrCause error

	epochSeq int64
	ckpt     *checkpoint
	// epochStart anchors the current epoch's wall time; qStart/qEnd are the
	// most recent quiescence wait. All three are monitor-goroutine state
	// (initialized before the monitor starts).
	epochStart   time.Time
	qStart, qEnd time.Time

	// offline marks a runtime built by PrepareReplay: it re-executes a stored
	// trace from program start instead of recording, with program output
	// re-emitted (there is no original execution to duplicate) and recorded
	// opens materialized through the virtual OS.
	offline bool
	// segStart/segEnd bound a segment replay built by PrepareReplayFlatAt:
	// segStart is the restored checkpoint RunReplay resumes from (nil when
	// replaying from program start), segEnd the next checkpoint the end
	// state must byte-match (nil for the trace's final segment).
	segStart *Checkpoint
	segEnd   *Checkpoint

	deferredMu sync.Mutex
	deferred   []deferredOp

	errMu   sync.Mutex
	progErr error

	watchMu   sync.Mutex
	watchHits []interp.WatchHit

	outMu  sync.Mutex
	outBuf strings.Builder

	monitorCh  chan struct{}
	shutdownCh chan struct{}
	done       chan struct{}

	// obs is the attached observer set (observer.go); populated from
	// Options.Observers at construction and via AttachObserver before the
	// program starts, immutable while threads run.
	obs observerSet

	stats Stats
}

// New builds a runtime for mod.
func New(mod *tir.Module, opts Options) (*Runtime, error) {
	if err := tir.Validate(mod); err != nil {
		return nil, err
	}
	opts.fill()
	rt := &Runtime{
		mod:        mod,
		mem:        mem.New(opts.Mem),
		os:         vsys.New(4321, opts.Seed),
		opts:       opts,
		shadows:    make(map[uint64]*syncVar),
		quiet:      make(chan struct{}, 1),
		monitorCh:  make(chan struct{}, 1),
		shutdownCh: make(chan struct{}),
		done:       make(chan struct{}),
	}
	// iReplayer raises the descriptor limit during initialization so that
	// deferred closes cannot exhaust it (§2.2.3).
	rt.os.RaiseFDLimit(4096)
	for _, o := range opts.Observers {
		rt.obs.add(o)
	}
	if opts.UseLibCAllocator {
		rt.alloc = heap.NewLibC(rt.mem, opts.ASLRSeed)
	} else {
		det := heap.NewDeterministic(rt.mem)
		det.SetFetchGate(rt.blockFetchGate)
		rt.det = det
		rt.alloc = det
	}
	rt.mu.Lock()
	rt.createVar = rt.newSyncVarLocked(createVarAddr)
	rt.superVar = rt.newSyncVarLocked(superVarAddr)
	rt.mu.Unlock()
	rt.initGlobals()
	return rt, nil
}

// initGlobals lays out and initializes module globals at GlobalBase.
func (rt *Runtime) initGlobals() {
	for i, g := range rt.mod.Globals {
		if len(g.Init) > 0 {
			rt.mem.WriteBytes(interp.GlobalAddr(rt.mod, i), g.Init)
		}
	}
}

// shadowList returns the current shadow-table snapshot (lock-free fast
// path; entries are immutable once published under rt.mu).
func (rt *Runtime) shadowList() []*syncVar {
	if p := rt.shadowL.Load(); p != nil {
		return *p
	}
	return nil
}

func (rt *Runtime) thread(id int32) *Thread {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if id < 0 || int(id) >= len(rt.threads) {
		return nil
	}
	return rt.threads[id]
}

// newThread allocates a vthread: deterministic ID, dedicated stack slot,
// private heap (§2.2.4). Caller holds createMu for deterministic ordering.
func (rt *Runtime) newThread(fn int, arg uint64, hasArg bool) (*Thread, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	id := rt.nextTID
	if int(id) >= rt.opts.Mem.MaxThreads {
		return nil, fmt.Errorf("core: thread limit %d reached", rt.opts.Mem.MaxThreads)
	}
	rt.nextTID++
	t := &Thread{
		id:        id,
		rt:        rt,
		list:      record.NewThreadList(rt.opts.EventCap),
		entryFn:   fn,
		entryArg:  arg,
		hasArg:    hasArg,
		bornEpoch: rt.epochSeq,
		wakeCh:    make(chan struct{}, 1),
		startCh:   make(chan startMsg, 1),
		doneCh:    make(chan struct{}),
		delayRng:  rand.New(rand.NewSource(int64(id)*2654435761 + 97)),
	}
	stackBase, stackSize := rt.mem.StackRange(int(id))
	t.cpu = interp.New(rt.mod, rt.mem, &threadHooks{t: t}, stackBase, stackSize)
	t.cpu.OnWatch = func(h interp.WatchHit) {
		rt.watchMu.Lock()
		rt.watchHits = append(rt.watchHits, h)
		rt.watchMu.Unlock()
	}
	if rt.det != nil {
		rt.det.AssignHeap(id)
	}
	if len(rt.obs.access) > 0 {
		rt.armAccessHook(t)
	}
	rt.threads = append(rt.threads, t)
	return t, nil
}

// blockFetchGate wraps super-heap block fetches in the recorded super-heap
// lock so that block assignment replays identically (§2.2.4): per-object
// allocations take no lock at all, only the (rare) acquisition of each block
// is serialized and recorded. Outside a thread context it runs f directly.
func (rt *Runtime) blockFetchGate(tid int32, f func()) {
	t := rt.thread(tid)
	if t == nil || rt.opts.DisableRecording {
		f()
		return
	}
	s := rt.superVar
	if rt.phaseIs(phReplay) {
		ev, err := t.nextReplayEvent()
		if err != nil {
			panic(fetchUnwind{err})
		}
		if ev != nil {
			if !record.Matches(ev, record.KBlockFetch, s.addr, 0) {
				panic(fetchUnwind{t.diverge(record.KBlockFetch, s.addr, ev)})
			}
			if err := t.waitTurn(s, ev.Pos); err != nil {
				panic(fetchUnwind{err})
			}
			if err := t.acquire(s); err != nil {
				panic(fetchUnwind{err})
			}
			f()
			t.releaseInternal(s)
			t.list.Advance()
			s.advanceTurn(rt)
			return
		}
	}
	if err := t.acquire(s); err != nil {
		panic(fetchUnwind{err})
	}
	pos := rt.appendVar(s, t.id)
	f()
	t.releaseInternal(s)
	t.appendEvent(record.Event{Kind: record.KBlockFetch, Var: s.addr, Pos: pos})
}

// fetchUnwind tunnels an unwind error out of the allocator callback.
type fetchUnwind struct{ err error }

// Run executes the program to completion (including any tool-driven replays)
// and returns the final report.
func (rt *Runtime) Run() (*Report, error) {
	main, err := rt.newThread(rt.mod.Entry, 0, false)
	if err != nil {
		rt.shutdown()
		return nil, err
	}
	// The program start is the first epoch's beginning (§3): checkpoint the
	// entry state before releasing the main thread.
	main.cpu.Start(rt.mod.Entry, nil)
	rt.epochSeq = 1
	rt.stats.Epochs = 1
	rt.epochStart = time.Now() //ir:wallclock epoch timeline telemetry
	rt.takeCheckpoint()
	rt.setPhase(phRecord)
	go rt.monitor()
	go main.trampoline()
	main.setState(tsRunning) // counted before the hand-off, like every wake
	main.startCh <- startMsg{kind: smStart}
	<-rt.done

	rt.errMu.Lock()
	err = rt.progErr
	rt.errMu.Unlock()
	rep := &Report{
		Exit:   main.exitVal,
		Stats:  rt.StatsSnapshot(),
		Output: rt.Output(),
	}
	return rep, err
}

// Report summarizes a completed run.
type Report struct {
	Exit   uint64
	Stats  Stats
	Output string
}

// --- public accessors for tools, benches, and the debugger ---

// Mem exposes the address space (detectors diff heap images, arm
// watchpoints).
func (rt *Runtime) Mem() *mem.Memory { return rt.mem }

// OS exposes the virtual OS (workload setup adds files).
func (rt *Runtime) OS() *vsys.OS { return rt.os }

// DetAllocator returns the deterministic allocator, or nil in baseline mode.
func (rt *Runtime) DetAllocator() *heap.Deterministic { return rt.det }

// Module returns the program under execution.
func (rt *Runtime) Module() *tir.Module { return rt.mod }

// StatsSnapshot returns a copy of the runtime counters.
func (rt *Runtime) StatsSnapshot() Stats {
	st := rt.stats
	rt.mu.Lock()
	for _, t := range rt.threads {
		if t != nil {
			st.Parks += t.parks.Load()
		}
	}
	rt.mu.Unlock()
	return st
}

// WatchHits drains the watchpoint hits collected during re-executions.
func (rt *Runtime) WatchHits() []interp.WatchHit {
	rt.watchMu.Lock()
	defer rt.watchMu.Unlock()
	out := rt.watchHits
	rt.watchHits = nil
	return out
}

// RequestEpochEnd asks the runtime to close the current epoch at the next
// quiescent point — the "user-defined criteria" trigger of §2.1. Tools call
// it from outside the runtime (e.g. a watchdog or an operator console); the
// OnEpochEnd hook then sees StopTool and may answer Replay. Returns false if
// an epoch boundary is already in progress.
func (rt *Runtime) RequestEpochEnd() bool {
	return rt.requestStop(StopTool, -1)
}

// pollInterrupt consults Options.Interrupt, latching and returning the
// first non-nil cause. Once latched it no longer calls the hook, so a
// context's Err is polled at most once per gated point and every caller
// sees the same cause.
func (rt *Runtime) pollInterrupt() error {
	if rt.opts.Interrupt == nil {
		return nil
	}
	if !rt.intr.Load() {
		err := rt.opts.Interrupt()
		if err == nil {
			return nil
		}
		rt.intrMu.Lock()
		if !rt.intr.Load() {
			rt.intrCause = err
			rt.intr.Store(true)
		}
		rt.intrMu.Unlock()
	}
	rt.intrMu.Lock()
	defer rt.intrMu.Unlock()
	return rt.intrCause
}

// DivergenceInfo describes the most recent divergence (diagnostics).
func (rt *Runtime) DivergenceInfo() string {
	rt.divMu.Lock()
	defer rt.divMu.Unlock()
	return rt.divInfo
}

// Output returns everything the program printed during recording.
func (rt *Runtime) Output() string {
	rt.outMu.Lock()
	defer rt.outMu.Unlock()
	return rt.outBuf.String()
}

// ThreadStacks symbolizes every live thread's stack (debugger "info
// threads" / backtraces, §4.3). Call only while the world is stopped.
func (rt *Runtime) ThreadStacks() map[int32][]interp.StackEntry {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	out := make(map[int32][]interp.StackEntry)
	for _, t := range rt.threads {
		if t == nil || t.state.Load() == tsDead || t.state.Load() == tsEmbryo {
			continue
		}
		out[t.id] = t.cpu.CallStack()
	}
	return out
}

// FaultedThread returns the thread that trapped and its error, if any.
func (rt *Runtime) FaultedThread() (int32, error) {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.threads {
		if t != nil && t.faulted != nil {
			return t.id, t.faulted
		}
	}
	return -1, nil
}

// preciseSleep sleeps us microseconds. Sub-millisecond waits spin on the
// wall clock: Go timer granularity under load is about a millisecond, which
// would erase the fine-grained timing relationships racy programs such as
// Crasher depend on — in the original *and*, critically, in re-executions,
// where a coarsened sleep would systematically bias the divergence search
// away from the recorded interleaving.
func preciseSleep(us uint64) {
	d := time.Duration(us) * time.Microsecond
	if d >= time.Millisecond {
		time.Sleep(d) //ir:wallclock recorded delay re-injection reproduces host timing by design
		return
	}
	deadline := time.Now().Add(d)     //ir:wallclock recorded delay re-injection reproduces host timing by design
	for time.Now().Before(deadline) { //ir:nopoll bounded spin to the sub-millisecond deadline above
		// Yield while spinning: on a single-P host a non-yielding spin
		// starves every other goroutine, which would *invert* the timing
		// relationship the sleep is meant to establish.
		runtime.Gosched()
	}
}

// threadHooks adapts one Thread to interp.Hooks.
type threadHooks struct{ t *Thread }

func (h *threadHooks) Syscall(num int64, args []uint64) (uint64, error) {
	var ret uint64
	var err error
	if h.t.rt.opts.DisableRecording {
		ret, err = h.t.performSyscall(num, args, nil)
	} else {
		ret, err = h.t.syscall(num, args)
	}
	if err == nil {
		h.t.rt.notifySyscall(h.t.id, num, ret)
	}
	return ret, err
}

func (h *threadHooks) Poll() error {
	if h.t.rt.opts.DisableRecording {
		if h.t.rt.phase() == phShutdown {
			return errShutdown
		}
		return nil
	}
	return h.t.intercept()
}

func (h *threadHooks) Intrinsic(id int64, args []uint64) (ret uint64, err error) {
	t := h.t
	rt := t.rt
	arg := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	if rt.opts.DisableRecording {
		return h.plainIntrinsic(id, args)
	}
	// Allocator callbacks unwind via panic; translate back to errors.
	defer func() {
		if r := recover(); r != nil {
			if fu, ok := r.(fetchUnwind); ok {
				ret, err = 0, fu.err
				return
			}
			panic(r)
		}
	}()
	switch id {
	case tir.IntrinMutexLock:
		return 0, t.mutexLock(arg(0))
	case tir.IntrinMutexUnlock:
		return 0, t.mutexUnlock(arg(0))
	case tir.IntrinMutexTryLock:
		return t.mutexTryLock(arg(0))
	case tir.IntrinCondWait:
		return 0, t.condWait(arg(0), arg(1))
	case tir.IntrinCondSignal:
		return 0, t.condSignal(arg(0), false)
	case tir.IntrinCondBroadcast:
		return 0, t.condSignal(arg(0), true)
	case tir.IntrinBarrierInit:
		return 0, t.barrierInit(arg(0), arg(1))
	case tir.IntrinBarrierWait:
		return t.barrierWait(arg(0))
	case tir.IntrinThreadCreate:
		return t.threadCreate(int64(arg(0)), arg(1))
	case tir.IntrinThreadJoin:
		return t.threadJoin(arg(0))
	case tir.IntrinThreadExit:
		t.pendingExit = arg(0)
		return 0, errThreadExit
	case tir.IntrinMalloc:
		if err := t.intercept(); err != nil {
			return 0, err
		}
		a := rt.alloc.Malloc(t.id, int64(arg(0)))
		if a == 0 {
			return 0, fmt.Errorf("core: out of memory (malloc %d)", arg(0))
		}
		rt.notifyAlloc(t, a, int64(arg(0)))
		return a, nil
	case tir.IntrinCalloc:
		if err := t.intercept(); err != nil {
			return 0, err
		}
		a := rt.alloc.Calloc(t.id, int64(arg(0)), int64(arg(1)))
		if a == 0 {
			return 0, fmt.Errorf("core: out of memory (calloc %d*%d)", arg(0), arg(1))
		}
		rt.notifyAlloc(t, a, int64(arg(0))*int64(arg(1)))
		return a, nil
	case tir.IntrinFree:
		if err := t.intercept(); err != nil {
			return 0, err
		}
		if err := rt.alloc.Free(t.id, arg(0)); err != nil {
			if rt.phaseIs(phReplay) {
				return 0, t.diverge(0, 0, nil)
			}
			return 0, err
		}
		rt.notifyFree(t, arg(0))
		return 0, nil
	case tir.IntrinSelfTID:
		return uint64(t.id), nil
	case tir.IntrinYield:
		if err := t.intercept(); err != nil {
			return 0, err
		}
		time.Sleep(time.Microsecond) //ir:wallclock guest yield maps to one host-time microsecond by design
		return 0, nil
	case tir.IntrinUsleep:
		if err := t.intercept(); err != nil {
			return 0, err
		}
		preciseSleep(arg(0))
		return 0, nil
	case tir.IntrinPrint:
		// In-situ replay suppresses output (the original execution already
		// printed it) — including the stopping/rollback phases, where a
		// thread between intercept points could otherwise duplicate a line
		// into the preserved original output. Offline replay re-emits
		// everything: there is no original stream, and matching the recorded
		// output is part of the identity check (diverged offline attempts
		// reset the buffer on rollback).
		ph := rt.phase()
		replaying := ph == phReplay || ph == phReplayStopping || ph == phRollback
		if !replaying || rt.offline {
			rt.outMu.Lock()
			fmt.Fprintf(&rt.outBuf, "%d\n", int64(arg(0)))
			rt.outMu.Unlock()
		}
		return 0, nil
	case tir.IntrinAbort:
		return 0, errors.New("core: abort() called")
	}
	return 0, fmt.Errorf("core: unknown intrinsic %d", id)
}

// plainIntrinsic executes intrinsics without recording for baseline timing
// runs: synchronization uses raw primitives, allocation goes straight to the
// allocator.
func (h *threadHooks) plainIntrinsic(id int64, args []uint64) (uint64, error) {
	t := h.t
	rt := t.rt
	arg := func(i int) uint64 {
		if i < len(args) {
			return args[i]
		}
		return 0
	}
	switch id {
	case tir.IntrinMutexLock:
		s, err := rt.varFor(arg(0))
		if err != nil {
			return 0, err
		}
		return 0, t.acquire(s)
	case tir.IntrinMutexUnlock:
		s, err := rt.varFor(arg(0))
		if err != nil {
			return 0, err
		}
		return 0, t.releaseInternal(s)
	case tir.IntrinMutexTryLock:
		s, err := rt.varFor(arg(0))
		if err != nil {
			return 0, err
		}
		s.mu.Lock()
		var ret uint64
		if !s.locked {
			s.locked, s.holder, ret = true, t.id, 1
			rt.notifySync(t.id, SyncAcquire, s.addr)
		}
		s.mu.Unlock()
		return ret, nil
	case tir.IntrinCondWait:
		c, err := rt.varFor(arg(0))
		if err != nil {
			return 0, err
		}
		m, err := rt.varFor(arg(1))
		if err != nil {
			return 0, err
		}
		if err := t.releaseInternal(m); err != nil {
			return 0, err
		}
		c.mu.Lock()
		c.waiters++
		c.mu.Unlock()
		if err := t.condConsume(c, -1); err != nil {
			return 0, err
		}
		return 0, t.acquire(m)
	case tir.IntrinCondSignal:
		return 0, t.condSignal(arg(0), false)
	case tir.IntrinCondBroadcast:
		return 0, t.condSignal(arg(0), true)
	case tir.IntrinBarrierInit:
		return 0, t.barrierInit(arg(0), arg(1))
	case tir.IntrinBarrierWait:
		s, err := rt.varFor(arg(0))
		if err != nil {
			return 0, err
		}
		s.mu.Lock()
		if s.parties == 0 {
			s.mu.Unlock()
			return 0, fmt.Errorf("core: wait on uninitialized barrier")
		}
		myGen := s.gen
		s.arrived++
		rt.notifySync(t.id, SyncBarrierArrive, s.addr)
		released := s.arrived == s.parties
		var serial uint64
		if released {
			s.arrived = 0
			s.gen++
			serial = 1
			// As in the recorded path: release + serial departure in the
			// arrival's critical section.
			rt.notifySync(t.id, SyncBarrierRelease, s.addr)
			rt.notifySync(t.id, SyncBarrierDepart, s.addr)
			s.sleepers.wakeAll(rt)
		}
		s.mu.Unlock()
		if released {
			return serial, nil
		}
		// barrierSleep notifies the departure under s.mu.
		if err := t.barrierSleep(s, myGen); err != nil {
			return 0, err
		}
		return 0, nil
	case tir.IntrinThreadCreate:
		rt.createMu.Lock()
		child, err := rt.newThread(int(arg(0)), arg(1), true)
		rt.createMu.Unlock()
		if err != nil {
			return 0, err
		}
		rt.notifyThreadCreate(t.id, child.id)
		go child.trampoline()
		child.setState(tsRunning)
		child.startCh <- startMsg{kind: smStart}
		return uint64(child.id), nil
	case tir.IntrinThreadJoin:
		child := rt.thread(int32(arg(0)))
		if child == nil {
			return 0, fmt.Errorf("core: join of invalid thread %d", arg(0))
		}
		if err := t.waitExit(child); err != nil {
			return 0, err
		}
		child.joined = true
		rt.notifyThreadJoin(t.id, child.id)
		return child.exitVal, nil
	case tir.IntrinThreadExit:
		t.pendingExit = arg(0)
		return 0, errThreadExit
	case tir.IntrinMalloc:
		a := rt.alloc.Malloc(t.id, int64(arg(0)))
		if a == 0 {
			return 0, fmt.Errorf("core: out of memory")
		}
		rt.notifyAlloc(t, a, int64(arg(0)))
		return a, nil
	case tir.IntrinCalloc:
		a := rt.alloc.Calloc(t.id, int64(arg(0)), int64(arg(1)))
		if a == 0 {
			return 0, fmt.Errorf("core: out of memory")
		}
		rt.notifyAlloc(t, a, int64(arg(0))*int64(arg(1)))
		return a, nil
	case tir.IntrinFree:
		if err := rt.alloc.Free(t.id, arg(0)); err != nil {
			return 0, err
		}
		rt.notifyFree(t, arg(0))
		return 0, nil
	case tir.IntrinSelfTID:
		return uint64(t.id), nil
	case tir.IntrinYield:
		time.Sleep(time.Microsecond) //ir:wallclock guest yield maps to one host-time microsecond by design
		return 0, nil
	case tir.IntrinUsleep:
		preciseSleep(arg(0))
		return 0, nil
	case tir.IntrinPrint:
		rt.outMu.Lock()
		fmt.Fprintf(&rt.outBuf, "%d\n", int64(arg(0)))
		rt.outMu.Unlock()
		return 0, nil
	case tir.IntrinAbort:
		return 0, errors.New("core: abort() called")
	}
	return 0, fmt.Errorf("core: unknown intrinsic %d", id)
}
