package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/interp"
	"repro/internal/record"
)

// Thread states. Any state other than tsRunning counts as quiescent for the
// stop-the-world protocol (§3.3): a non-running thread cannot change program
// state, and once every thread is non-running nobody can wake anybody.
// Runtime.running counts the threads in tsRunning (signal.go). tsBlocked and
// tsStopped are entered only through Thread.park; in tsEmbryo, tsExited and
// tsUnwound the goroutine waits at its trampoline for a start message.
const (
	tsEmbryo  int32 = iota // goroutine exists, body not started (replay: awaits its create event)
	tsRunning              // executing TIR, or runnable: a waker has counted it
	tsBlocked              // parked on a synchronization condition or replay turn
	tsStopped              // parked for an epoch stop or replay completion
	tsExited               // body finished; kept alive at the trampoline to preserve ID and stack (§3.2.1)
	tsUnwound              // rolled back; waiting at the trampoline for a restart message
	tsDead                 // reclaimed
)

// errShutdown unwinds threads when the program terminates.
var errShutdown = errors.New("core: runtime shutdown")

// errThreadExit is the internal signal for the thread_exit intrinsic.
var errThreadExit = errors.New("core: thread exit")

// startKind selects what a trampoline iteration should do.
type startKind int

const (
	smStart  startKind = iota // run the body from its entry function
	smResume                  // restore a checkpointed context and re-run (rollback)
)

type startMsg struct {
	kind  startKind
	ctx   *interp.Context
	block BlockState
}

// Block kinds (BlockState.Kind).
const (
	bkNone int32 = iota
	bkCondWait
	bkBarrier
)

// Thread is one vthread: a goroutine driving a checkpointable virtual CPU.
type Thread struct {
	id int32
	rt *Runtime

	cpu  *interp.CPU
	list *record.ThreadList

	entryFn  int
	entryArg uint64
	hasArg   bool

	// state is stored only by setStateLocked (signal.go), which keeps
	// Runtime.running in step with it.
	state atomic.Int32

	// pk orders this thread's park against every wake aimed at it; a leaf
	// lock. The thread is parked — asleep on wakeCh — exactly while its state
	// is tsBlocked or tsStopped. token: a wake arrived while the thread was
	// not parked, and its next park returns at once.
	pk     sync.Mutex
	token  bool
	wakeCh chan struct{}
	// waiting describes the current park for stall verdicts; parks counts
	// the times the thread actually slept (Stats.Parks).
	waiting waitInfo
	parks   atomic.Int64

	startCh chan startMsg
	doneCh  chan struct{}

	// exitVal is the body's return / thread_exit value.
	exitVal uint64
	// joined marks a completed join; the joinee is reclaimed at the next
	// epoch boundary (§3.1 housekeeping).
	joined bool
	// joiners are the threads parked in waitExit on this thread. exitMu
	// guards the list and makes "wake the joiners, then become tsExited" one
	// step as seen from waitExit.
	exitMu  sync.Mutex
	joiners waitList

	// block mirrors the thread's current position inside a blocking
	// primitive; captured at checkpoint, restored on rollback.
	block BlockState
	// resumeBlock is consumed by the next blocking intrinsic after a
	// rollback: it tells cond/barrier waits to skip their entry phase
	// because the restored shared state already accounts for this waiter.
	resumeBlock BlockState

	// irrevocablePass lets the thread that closed an epoch on an irrevocable
	// syscall execute that syscall once the next epoch has begun.
	irrevocablePass bool

	// pendingExit holds the value passed to thread_exit.
	pendingExit uint64

	// delayRng drives the per-thread random delays inserted at diverging
	// points during replay retries (§3.5.2).
	delayRng *rand.Rand

	// faulted is set when this thread trapped; its frames are preserved for
	// the debugger (§4.3).
	faulted error
}

// ID returns the thread's identifier.
func (t *Thread) ID() int32 { return t.id }

// trampoline is the goroutine body: it runs the thread's TIR body and, after
// a rollback, restores a checkpointed context and runs again — the in-situ
// re-execution loop of Figure 2. Between bodies — as an embryo, unwound, or
// exited and kept alive for its ID and stack (§3.2.1) — the goroutine waits
// here for the next message; reclamation and shutdown close the channel.
func (t *Thread) trampoline() {
	defer close(t.doneCh)
	for msg := range t.startCh {
		switch msg.kind {
		case smStart:
			var args []uint64
			if t.hasArg {
				args = []uint64{t.entryArg}
			}
			t.cpu.Start(t.entryFn, args)
			t.resumeBlock = BlockState{}
			t.block = BlockState{}
			t.faulted = nil
		case smResume:
			t.cpu.SetContext(msg.ctx)
			t.resumeBlock = msg.block
			t.block = msg.block
			t.faulted = nil
		}
		// Whoever sent msg has already counted this thread running; a repeated
		// mark is not a transition.
		t.setState(tsRunning)
		err := t.cpu.Run()
		switch {
		case err == nil:
			t.exitPath(t.cpu.Result())
		case errors.Is(err, errThreadExit):
			t.exitPath(t.pendingExit)
		case errors.Is(err, interp.ErrUnwind):
			// Rollback: wait for a resume (or shutdown) message.
			t.setState(tsUnwound)
		case errors.Is(err, errShutdown):
			t.setState(tsDead)
			return
		default:
			// A trap (SIGSEGV analogue): report to the runtime, which closes
			// the epoch with fault evidence; the thread parks with its
			// frames intact so tools can inspect the stack (§4.3).
			t.faulted = err
			t.rt.onTrap(t, err)
			t.setState(tsUnwound)
		}
	}
}

// exitPath implements thread termination for both recording and replay; the
// thread then returns to its trampoline, alive until reclamation or rollback
// (§3.2.1: joinee threads are kept, preserving IDs and stacks).
func (t *Thread) exitPath(val uint64) {
	rt := t.rt
	t.exitVal = val
	switch {
	case rt.opts.DisableRecording:
		// Plain execution: no events.
	case rt.phaseIs(phReplay):
		ev := t.list.Peek()
		switch {
		case ev == nil:
			// The thread replayed its whole log and ran on to its exit: the
			// exit belongs to the epoch *after* the one being replayed (the
			// thread was parked at an interception when that epoch closed).
			// Wait for the world to resume recording, then record the exit
			// there — it is not a divergence (§3.5).
			if err := t.parkReplayDone(); err != nil {
				t.setState(tsUnwound)
				return
			}
			t.appendEvent(record.Event{Kind: record.KExit, Ret: val, Pos: -1})
		case !record.Matches(ev, record.KExit, 0, 0):
			rt.noteDivergence(t, record.KExit, 0, ev)
		default:
			t.list.Advance()
		}
	default:
		t.appendEvent(record.Event{Kind: record.KExit, Ret: val, Pos: -1})
	}
	// Before the exited state becomes visible, so a joiner's callbacks
	// observe the exit first.
	rt.notifyThreadExit(t.id)
	if t.id == 0 && !rt.phaseIs(phReplay) {
		// Main returning terminates the program: close the final epoch.
		// During replay the coordinator observes quiescence instead. Requested
		// while main is still counted running, like every other wake.
		rt.requestStop(StopProgramEnd, t.id)
	}
	// Joiners are counted running before this thread stops being counted, so
	// the exit cannot take the count through zero with a joiner runnable.
	t.exitMu.Lock()
	t.joiners.wakeAll(rt)
	t.setState(tsExited)
	t.exitMu.Unlock()
}

// phase helpers -------------------------------------------------------------

// intercept is executed before every synchronization operation and system
// call (§3.3: the synchronized stop method — threads check for a stop
// request before any interceptable operation). It parks the thread during
// stops and unwinds it during rollbacks. During replay retries it inserts
// the paper's random delays at gated points to perturb racy timing without
// changing the recorded order (§3.5.2). The proceed path is the interrupt
// poll and one atomic load of the phase.
func (t *Thread) intercept() error {
	rt := t.rt
	if rt.opts.Interrupt != nil && rt.pollInterrupt() != nil {
		// A caller canceled the run. Offline the world is ours alone: unwind
		// this thread outright; RunReplay notices at quiescence and shuts
		// down. In situ, drive the world to an epoch boundary instead —
		// handleEpochEnd terminates there — so the stop protocol stays the
		// one the paper defines.
		if rt.offline {
			return errShutdown
		}
		rt.requestStop(StopTool, t.id)
	}
	ph := rt.phase()
	if ph == phReplay && rt.opts.DelayOnDivergence && rt.attempt.Load() > 1 && t.delayRng.Intn(4) == 0 {
		time.Sleep(time.Duration(t.delayRng.Intn(50)+1) * time.Microsecond) //ir:wallclock divergence delay injection is host-time by design
		ph = rt.phase()
	}
	for {
		switch ph {
		case phRecord, phReplay:
			return nil
		case phStopping, phReplayStopping:
			t.park(tsStopped, waitInfo{})
		case phRollback:
			return interp.ErrUnwind
		case phShutdown:
			return errShutdown
		}
		ph = rt.phase()
	}
}

// parkBoundary parks a thread that reached its segment-end instruction
// boundary during an offline segment replay (interp.CPU.OnBoundary): the
// rest of its execution belongs to the next segment. It blocks until the
// runtime decides — rollback on a divergence retry, shutdown after the
// segment is verified — and returns the corresponding unwind error.
func (t *Thread) parkBoundary() error {
	rt := t.rt
	for {
		switch rt.phase() {
		case phRollback:
			return interp.ErrUnwind
		case phShutdown:
			return errShutdown
		}
		t.park(tsStopped, waitInfo{})
	}
}

// parkReplayDone parks a thread whose per-thread list is exhausted during
// replay: its next operation belongs to the epoch after the one being
// replayed, so it waits for the world to switch back to recording (§3.5).
func (t *Thread) parkReplayDone() error {
	rt := t.rt
	for {
		switch rt.phase() {
		case phRecord:
			return nil // matched replay; continue recording with this op
		case phRollback:
			return interp.ErrUnwind
		case phShutdown:
			return errShutdown
		}
		t.park(tsStopped, waitInfo{})
	}
}

// eventMargin is how many free per-thread entries must remain after an
// append; one interception records at most two events (a cond wake plus the
// mutex reacquisition), so requesting the stop with this margin guarantees
// the preallocated lists never overflow before quiescence (§3.2).
const eventMargin = 8

// appendEvent records an event in the per-thread list, requesting an epoch
// end while a safety margin still remains.
func (t *Thread) appendEvent(e record.Event) {
	t.list.Append(e)
	if t.list.Cap()-t.list.Len() <= eventMargin {
		t.rt.requestStop(StopLogFull, t.id)
	}
}

// nextReplayEvent fetches the thread's next recorded event during replay,
// parking the thread if its list is already exhausted (the operation belongs
// to the next epoch). A nil return with nil error means the world has moved
// back to recording and the caller should re-execute the operation in
// recording mode.
func (t *Thread) nextReplayEvent() (*record.Event, error) {
	for {
		if err := t.intercept(); err != nil {
			return nil, err
		}
		if !t.rt.phaseIs(phReplay) {
			return nil, nil
		}
		if !t.list.Replayed() {
			return t.list.Peek(), nil
		}
		if err := t.parkReplayDone(); err != nil {
			return nil, err
		}
		// parkReplayDone returns nil only once recording resumed; loop to
		// re-observe the phase.
	}
}

func (t *Thread) String() string {
	return fmt.Sprintf("thread %d", t.id)
}
