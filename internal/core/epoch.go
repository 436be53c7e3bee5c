package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/record"
)

// Runtime phases. Transitions:
//
//	phRecord -> phStopping            (epoch-end trigger, §3.3)
//	phStopping -> phRecord            (proceed: housekeeping + checkpoint)
//	phStopping -> phRollback          (replay decision)
//	phRollback -> phReplay            (state restored, threads resumed, §3.4)
//	phReplay -> phReplayStopping      (divergence or replay complete)
//	phReplayStopping -> phRollback    (divergence: search again, §3.5.2)
//	phReplayStopping -> phRecord      (matched: proceed to next epoch)
//	any -> phShutdown                 (program end)
//
// The coordinator never infers that the world has stopped, it is told:
// Runtime.running counts the threads in tsRunning, it moves only on a state
// transition in Thread.setStateLocked, and the thread that takes it to zero
// posts to Runtime.quiet (signal.go holds the contract). Three rules make
// zero mean quiescent:
//
//   - A phase is stored, then every thread is woken (setPhase, requestStop,
//     requestReplayStop): a parked thread is counted running by the waker,
//     a thread about to park finds a token and re-reads the phase instead.
//   - Whoever hands a thread a start or resume message counts it running
//     first; a stop request is signalled to the coordinator after its wakes.
//   - Each wait therefore needs one check. After phStopping or during
//     phReplay, zero is quiescent: every thread is parked at a gate, blocked
//     with nobody runnable to unblock it, or at its trampoline. After
//     phRollback, zero is all-unwound. During phReplay, zero with unreplayed
//     events is a stall, immediately — not a slow host.
//
// Zero is checked against a scan of the thread states at every boundary; a
// mismatch is a "core: quiescence accounting" error, never a silent proceed.
const (
	phRecord int32 = iota
	phStopping
	phReplay
	phReplayStopping
	phRollback
	phShutdown
)

// StopReason explains why an epoch ended.
type StopReason int

const (
	// StopNone: no stop in progress.
	StopNone StopReason = iota
	// StopLogFull: a preallocated event list was exhausted (§3.2).
	StopLogFull
	// StopIrrevocable: a thread reached an irrevocable system call (§2.2.3).
	StopIrrevocable
	// StopProgramEnd: main returned; the final epoch is closing.
	StopProgramEnd
	// StopFault: a thread trapped (SIGSEGV analogue); tools may replay with
	// watchpoints or hand control to the debugger (§4.3).
	StopFault
	// StopTool: a tool or the user explicitly requested an epoch end.
	StopTool
)

func (r StopReason) String() string {
	switch r {
	case StopNone:
		return "none"
	case StopLogFull:
		return "log-full"
	case StopIrrevocable:
		return "irrevocable-syscall"
	case StopProgramEnd:
		return "program-end"
	case StopFault:
		return "fault"
	case StopTool:
		return "tool-request"
	}
	return fmt.Sprintf("reason(%d)", int(r))
}

// Decision is a tool's verdict at an epoch boundary.
type Decision int

const (
	// Proceed continues to the next epoch (or terminates, at program end).
	Proceed Decision = iota
	// Replay rolls back and re-executes the last epoch (Figure 2).
	Replay
	// Abort terminates the program immediately.
	Abort
)

// EpochEndInfo is passed to the OnEpochEnd hook.
type EpochEndInfo struct {
	Epoch  int64
	Reason StopReason
	// TID is the thread that triggered the stop.
	TID int32
	// Fault is the trap error when Reason is StopFault.
	Fault error
}

// checkpoint is everything needed to roll the world back to an epoch
// beginning (§3.1): the memory snapshot, allocator metadata, file positions,
// per-thread CPU contexts and blocking situations, and shadow
// synchronization state.
type checkpoint struct {
	epoch     int64
	snap      *mem.Snapshot
	allocSnap heap.AllocSnapshot
	positions map[int64]int64
	threads   map[int32]threadCkpt
	varState  map[int32]varCkpt
}

type threadCkpt struct {
	ctx    *interp.Context
	exited bool
	joined bool
	block  blockInfo
}

func (rt *Runtime) phase() int32         { return rt.ph.Load() }
func (rt *Runtime) phaseIs(p int32) bool { return rt.ph.Load() == p }

// setPhase publishes p and then wakes every thread: parked ones are counted
// running before setPhase returns, so a coordinator that waits next waits for
// them.
func (rt *Runtime) setPhase(p int32) {
	rt.ph.Store(p)
	rt.wakeAll()
}

// requestStop asks the world to stop for an epoch end; only the first
// request per epoch wins (that thread is the paper's coordinator trigger).
func (rt *Runtime) requestStop(reason StopReason, tid int32) bool {
	rt.stopMu.Lock()
	if rt.ph.Load() != phRecord {
		rt.stopMu.Unlock()
		return false
	}
	rt.stopReason = reason
	rt.stopTID = tid
	rt.ph.Store(phStopping)
	rt.stopMu.Unlock()
	// Wake, then signal: when the coordinator starts waiting the count already
	// includes every thread this stop made runnable.
	rt.wakeAll()
	select {
	case rt.monitorCh <- struct{}{}:
	default:
	}
	return true
}

// requestReplayStop interrupts a replay (divergence detected).
func (rt *Runtime) requestReplayStop() bool {
	rt.stopMu.Lock()
	if rt.ph.Load() != phReplay {
		rt.stopMu.Unlock()
		return false
	}
	rt.ph.Store(phReplayStopping)
	rt.stopMu.Unlock()
	rt.wakeAll()
	return true
}

// noteDivergence records that a replaying thread attempted an action that
// does not match its recorded next event (§3.5.2) and interrupts the replay.
func (rt *Runtime) noteDivergence(t *Thread, kind record.Kind, varAddr uint64, got *record.Event) {
	rt.divMu.Lock()
	if !rt.diverged {
		rt.diverged = true
		rt.divInfo = fmt.Sprintf("thread %d attempted %v on %#x, recorded %v",
			t.id, kind, varAddr, got)
	}
	rt.stats.Divergences++
	rt.divMu.Unlock()
	rt.requestReplayStop()
}

// onTrap handles a trap (memory fault, abort, assertion) from a thread.
func (rt *Runtime) onTrap(t *Thread, err error) {
	switch rt.phase() {
	case phReplay, phReplayStopping:
		if rt.stopReason == StopFault && t.list.Replayed() {
			// The original epoch ended with this thread's fault; trapping
			// again after replaying every event is the *matching* outcome.
			return
		}
		rt.noteDivergence(t, 0, 0, nil)
	default:
		rt.setErr(err)
		rt.requestStop(StopFault, t.id)
	}
}

// monitor is the coordinator: it owns quiescence detection, checkpointing,
// rollback, and the proceed/replay decision at each epoch boundary. The
// paper assigns this role to the triggering application thread (§3.3); a
// dedicated goroutine is behaviourally equivalent and keeps application
// threads free of coordinator state.
func (rt *Runtime) monitor() {
	defer close(rt.done)
	for { //ir:nopoll woken by monitorCh/shutdownCh; shutdown is the cancellation path
		select {
		case <-rt.monitorCh:
		case <-rt.shutdownCh:
			rt.shutdown()
			return
		}
		qs := time.Now() //ir:wallclock quiescence latency telemetry
		err := rt.awaitQuiescence()
		rt.observeQuiescence(qs)
		if err != nil {
			rt.setErr(err)
		}
		if err != nil || rt.handleEpochEnd() {
			rt.shutdown()
			return
		}
	}
}

// setErr records the run's terminating error; the first one wins.
func (rt *Runtime) setErr(err error) {
	rt.errMu.Lock()
	if rt.progErr == nil {
		rt.progErr = err
	}
	rt.errMu.Unlock()
}

// observeQuiescence accounts one completed quiescence wait that began at
// start: cumulative stats, the latency histogram, and the interval the next
// epoch span records as its quiescence child. Monitor-goroutine only.
func (rt *Runtime) observeQuiescence(start time.Time) {
	rt.qStart, rt.qEnd = start, time.Now() //ir:wallclock quiescence latency telemetry
	d := rt.qEnd.Sub(rt.qStart)
	rt.stats.QuiescenceNS += d.Nanoseconds()
	obs.CoreQuiescence.Observe(d.Seconds())
}

// handleEpochEnd runs after quiescence: consult tools, then proceed, replay
// (possibly many times, §3.5.2), or terminate. Returns true when the
// program is over.
func (rt *Runtime) handleEpochEnd() bool {
	// A caller-interrupted run terminates at this boundary: the final
	// epoch's log is deliberately not flushed (a canceled recording is an
	// incomplete trace, and the store reports it as such).
	if err := rt.pollInterrupt(); err != nil {
		rt.setErr(fmt.Errorf("core: run interrupted: %w", err))
		return true
	}
	// stopReason/stopTID are written by requestStop under stopMu from
	// arbitrary goroutines (tools call RequestEpochEnd); take the lock for
	// the read — the captured reason is persisted into trace files and must
	// be the one whose stop this boundary is handling.
	rt.stopMu.Lock()
	reason := rt.stopReason
	stopTID := rt.stopTID
	rt.stopMu.Unlock()
	info := EpochEndInfo{Epoch: rt.epochSeq, Reason: reason, TID: stopTID, Fault: rt.progErr}

	// The epoch's timeline span covers the whole epoch — begin-of-epoch
	// through the end of this boundary's processing (quiescence, tool
	// decisions, any rollbacks) — so a recording timeline shows where the
	// wall time of each epoch went.
	bnd := rt.opts.Span.ChildAt(fmt.Sprintf("epoch %d", rt.epochSeq), rt.epochStart)
	bnd.Record("quiescence", rt.qStart, rt.qEnd)
	rollbacks := 0
	defer func() {
		obs.CoreEpoch.Observe(time.Since(rt.epochStart).Seconds()) //ir:wallclock epoch latency telemetry
		bnd.SetAttr("reason", reason.String())
		if rollbacks > 0 {
			bnd.SetAttr("rollbacks", fmt.Sprintf("%d", rollbacks))
		}
		bnd.End()
		rt.epochStart = time.Now() //ir:wallclock epoch timeline telemetry
	}()

	decision := rt.epochDecision(
		func() Decision {
			if rt.opts.OnEpochEnd == nil {
				return Proceed
			}
			return rt.opts.OnEpochEnd(rt, info)
		},
		func(o EpochObserver) Decision { return o.OnEpochEnd(rt, info) },
	)

	rt.divMu.Lock()
	rt.attempt.Store(0)
	rt.divMu.Unlock()

	for decision == Replay {
		rt.divMu.Lock()
		attempt := int(rt.attempt.Add(1))
		rt.diverged = false
		rt.divMu.Unlock()
		if rt.opts.MaxReplays > 0 && attempt > rt.opts.MaxReplays {
			decision = Abort
			rt.setErr(fmt.Errorf("core: no matching schedule within %d replays", rt.opts.MaxReplays))
			break
		}
		rt.stats.Replays++
		rollbacks = attempt
		obs.CoreRollbacks.Inc()
		rbStart := time.Now() //ir:wallclock rollback timeline telemetry
		err := rt.rollbackAndReplay()
		if err == nil {
			qs := time.Now() //ir:wallclock quiescence latency telemetry
			err = rt.awaitQuiescence()
			rt.observeQuiescence(qs)
		}
		bnd.Record(fmt.Sprintf("rollback %d", attempt), rbStart, time.Now()) //ir:wallclock rollback timeline telemetry
		if err != nil {
			rt.setErr(err)
			return true
		}

		if rt.replayMatched() {
			rt.stats.MatchedReplays++
			rt.stats.LastReplayAttempts = attempt
			decision = rt.epochDecision(
				func() Decision {
					if rt.opts.OnReplayMatched == nil {
						return Proceed
					}
					return rt.opts.OnReplayMatched(rt, attempt)
				},
				func(o EpochObserver) Decision { return o.OnReplayMatched(rt, attempt) },
			)
		}
		// A divergent replay loops with decision still Replay.
	}

	switch decision {
	case Abort:
		return true
	default: // Proceed
		if err := rt.flushTraceSink(reason); err != nil {
			rt.setErr(fmt.Errorf("core: trace sink: %w", err))
			return true
		}
		if reason == StopProgramEnd || reason == StopFault {
			return true
		}
		if rt.mainExited() {
			// Main's own exit event can fill the event list, making the
			// StopLogFull request win the stop race and drop main's
			// StopProgramEnd (requestStop accepts one trigger per epoch).
			// Main's exit is in the epoch just flushed and every thread is
			// parked — beginning a new epoch would wait forever.
			return true
		}
		if err := rt.beginEpoch(); err != nil {
			rt.setErr(err)
			return true
		}
		return false
	}
}

// mainExited reports whether thread 0 has run to completion. Called at an
// epoch boundary (world quiescent), where main's state is stable.
func (rt *Runtime) mainExited() bool {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	t := rt.threads[0]
	return t != nil && t.state.Load() == tsExited
}

// flushTraceSink hands the closing epoch's finalized log to the configured
// trace sink. It runs while the world is quiescent, after any tool-driven
// replays matched (a matched replay leaves the lists holding exactly the
// recorded events) and before beginEpoch's housekeeping clears them.
func (rt *Runtime) flushTraceSink(reason StopReason) error {
	if rt.opts.DisableRecording || (rt.opts.TraceSink == nil && rt.opts.FlightRecorder == nil) {
		return nil
	}
	// One capture feeds both consumers; the log is immutable once built.
	ep := rt.captureEpochLog(reason)
	if rt.opts.TraceSink != nil {
		if err := rt.opts.TraceSink(ep); err != nil {
			return err
		}
	}
	if rt.opts.FlightRecorder != nil {
		if err := rt.opts.FlightRecorder.RecordEpoch(ep); err != nil {
			return fmt.Errorf("core: flight recorder: %w", err)
		}
	}
	return nil
}

// captureEpochLog deep-copies the epoch's per-thread and per-variable lists
// into an encode-stable record.EpochLog. Reclaimed (dead) threads cannot
// carry events from this epoch and are skipped; every other thread is
// included even with an empty list, because the offline replayer needs each
// thread's entry function to pre-create it.
func (rt *Runtime) captureEpochLog(reason StopReason) *record.EpochLog {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	ep := &record.EpochLog{Epoch: rt.epochSeq, Reason: int32(reason)}
	for _, t := range rt.threads {
		if t == nil || t.state.Load() == tsDead {
			continue
		}
		ep.Threads = append(ep.Threads, record.ThreadLog{
			TID:     t.id,
			EntryFn: int32(t.entryFn),
			Events:  append([]record.Event(nil), t.list.Events()...),
		})
	}
	for _, s := range rt.shadowList() {
		s.mu.Lock()
		if s.order.Len() > 0 {
			ep.Vars = append(ep.Vars, record.VarLog{
				Addr:  s.addr,
				Order: append([]int32(nil), s.order.Order()...),
			})
		}
		s.mu.Unlock()
	}
	return ep
}

// replayMatched reports whether the finished re-execution reproduced the
// recorded schedule: no divergence was flagged and every thread consumed its
// entire per-thread list (§3.5.2). It runs with the count at zero, so a
// thread with events left is stalled, not slow: nothing is runnable that
// could unblock it. The verdict names every such thread, its next recorded
// event and what it is parked on — the wait-for picture of the stall.
func (rt *Runtime) replayMatched() bool {
	rt.divMu.Lock()
	diverged := rt.diverged
	rt.divMu.Unlock()
	if diverged {
		return false
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	var stalled []string
	for _, t := range rt.threads {
		if t == nil || t.state.Load() == tsDead || t.list.Replayed() {
			continue
		}
		ev := t.list.Peek()
		stalled = append(stalled, fmt.Sprintf("thread %d stalled before its recorded %v (variable %#x, turn %d), %s",
			t.id, ev.Kind, ev.Var, ev.Pos, t.describeWait()))
	}
	if len(stalled) == 0 {
		return true
	}
	rt.divMu.Lock()
	rt.diverged = true
	rt.divInfo = strings.Join(stalled, "; ")
	rt.stats.Divergences++
	rt.divMu.Unlock()
	return false
}

// describeWait says what a non-running thread is waiting for. The world is
// quiescent: t.waiting was written before t parked.
func (t *Thread) describeWait() string {
	st := t.state.Load()
	if st != tsBlocked && st != tsStopped {
		return stateName(st)
	}
	w := t.waiting
	if w.s == nil {
		if w.kind == wkJoin {
			return fmt.Sprintf("parked on the exit of thread %d, which is %s", w.on.id, stateName(w.on.state.Load()))
		}
		return "parked for the stop"
	}
	w.s.mu.Lock()
	defer w.s.mu.Unlock()
	turn := fmt.Sprintf("the turn is %d, past the recorded order", w.s.order.Turn())
	if int(w.s.order.Turn()) < w.s.order.Len() {
		turn = fmt.Sprintf("the turn is %d, thread %d's", w.s.order.Turn(), w.s.order.Owner(w.s.order.Turn()))
	}
	switch w.kind {
	case wkTurn:
		return fmt.Sprintf("parked on variable %#x for turn %d; %s", w.s.addr, w.pos, turn)
	case wkCond:
		return fmt.Sprintf("parked on condition %#x (fuel %d, %d waiters) for turn %d; %s",
			w.s.addr, w.s.fuel, w.s.waiters, w.pos, turn)
	case wkMutex:
		return fmt.Sprintf("parked on mutex %#x held by thread %d", w.s.addr, w.s.holder)
	default: // wkBarrier
		return fmt.Sprintf("parked on barrier %#x with %d of %d arrived", w.s.addr, w.s.arrived, w.s.parties)
	}
}

// beginEpoch performs §3.1: housekeeping (deferred syscalls, reclamation of
// joined threads, log reset), then checkpoints memory, file positions,
// allocator metadata, shadow synchronization state, and every thread's
// context — persisting the checkpoint through the configured sink at the
// configured interval. The world resumes recording afterwards.
func (rt *Runtime) beginEpoch() error {
	rt.drainDeferred()
	rt.reclaimJoined()
	rt.clearLogs()
	rt.epochSeq++
	rt.stats.Epochs++
	rt.takeCheckpoint()
	if rt.checkpointDue() {
		// Export while still quiescent: the VFS capture and the shared
		// snapshot must not race resumed threads. One capture feeds both the
		// checkpoint sink and the flight recorder.
		ck := rt.captureCheckpoint()
		if rt.opts.CheckpointSink != nil {
			if err := rt.opts.CheckpointSink(ck); err != nil {
				return fmt.Errorf("core: checkpoint sink: %w", err)
			}
		}
		if rt.opts.FlightRecorder != nil {
			if err := rt.opts.FlightRecorder.RecordCheckpoint(ck); err != nil {
				return fmt.Errorf("core: flight recorder: %w", err)
			}
		}
	}
	rt.stopMu.Lock()
	rt.stopReason = StopNone
	rt.stopMu.Unlock()
	rt.setPhase(phRecord)
	return nil
}

// takeCheckpoint captures the rollback state for the opening epoch.
func (rt *Runtime) takeCheckpoint() {
	ck := &checkpoint{
		epoch:     rt.epochSeq,
		snap:      rt.mem.Snapshot(),
		allocSnap: rt.alloc.Snapshot(),
		positions: rt.os.Positions(),
		threads:   make(map[int32]threadCkpt),
		varState:  make(map[int32]varCkpt),
	}
	rt.stats.CheckpointPages += int64(ck.snap.PagesCopied())
	rt.mu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	shadows := rt.shadowList()
	rt.mu.Unlock()
	for _, t := range threads {
		if t == nil || t.state.Load() == tsDead {
			continue
		}
		tc := threadCkpt{exited: t.state.Load() == tsExited, joined: t.joined, block: t.block}
		if !tc.exited {
			tc.ctx = t.cpu.GetContext()
		}
		ck.threads[t.id] = tc
	}
	for _, s := range shadows {
		ck.varState[s.id] = s.checkpoint()
	}
	rt.ckpt = ck
}

// rollbackAndReplay implements §3.4: unwind every thread to its trampoline,
// restore memory, allocator, file positions, shadow state and list cursors,
// then resume each thread from its checkpointed context for re-execution.
func (rt *Runtime) rollbackAndReplay() error {
	// 1. Unwind: the phase change counts every parked thread running; each
	// leaves its hook for its trampoline, and count zero is all-unwound.
	rt.setPhase(phRollback)
	if err := rt.awaitUnwound(); err != nil {
		return err
	}

	// 2. Restore shared state while every thread is at its trampoline.
	if rt.offline {
		// An offline retry restarts the whole program; discard the diverged
		// attempt's re-emitted output so a matched attempt's output is whole.
		rt.outMu.Lock()
		rt.outBuf.Reset()
		rt.outMu.Unlock()
	}
	rt.clearDeferred()
	rt.mem.Restore(rt.ckpt.snap)
	rt.alloc.Restore(rt.ckpt.allocSnap)
	rt.os.RestorePositions(rt.ckpt.positions)
	rt.mu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	shadows := rt.shadowList()
	rt.mu.Unlock()
	for _, s := range shadows {
		if st, ok := rt.ckpt.varState[s.id]; ok {
			s.restore(st)
		} else {
			// Variable first used during the dead epoch: reset wholesale.
			s.restore(varCkpt{holder: -1})
		}
	}

	// Thread states a resumed thread may consult (a joiner tests its joinee
	// for tsExited) are settled before anybody is resumed: a thread that had
	// exited before the checkpoint stays at its trampoline as it is, exit
	// value intact; one born during the dead epoch becomes an embryo again
	// and waits for its replayed create event; one that was live at the
	// checkpoint is tsUnwound even if it ran to its exit in the abandoned
	// epoch — a lower-id joiner resumed before it must not take that stale
	// exit for the replayed one. Either way its start channel is empty —
	// whoever sent its last message counted it running first, so the count
	// could not reach zero above until the message was consumed.
	for _, t := range threads {
		if t == nil || t.state.Load() == tsDead {
			continue
		}
		t.list.ResetReplay()
		t.faulted = nil
		t.exitMu.Lock()
		t.joiners = t.joiners[:0]
		t.exitMu.Unlock()
		switch tc, inCkpt := rt.ckpt.threads[t.id]; {
		case !inCkpt:
			t.setState(tsEmbryo)
		case tc.exited:
			t.joined = tc.joined
			t.setState(tsExited) // already so in situ; a segment's cast starts as embryos
		default:
			t.joined = tc.joined
			t.setState(tsUnwound)
		}
	}

	// The abandoned attempt's observations are about to be re-executed;
	// stateful observers discard them while every thread is still parked.
	rt.notifyReset()

	// 3. Resume the threads that were live at the checkpoint. Each is marked
	// running before it is handed its message: a thread with an unprocessed
	// resume is not quiescent, and a coordinator that saw the hand-off window
	// as a stall would start a second rollback whose send deadlocks against
	// the undrained one-slot start channel.
	rt.setPhase(phReplay)
	for _, t := range threads {
		if t == nil || t.state.Load() == tsDead {
			continue
		}
		if tc, inCkpt := rt.ckpt.threads[t.id]; inCkpt && !tc.exited {
			t.setState(tsRunning)
			t.startCh <- startMsg{kind: smResume, ctx: tc.ctx, block: tc.block}
		}
	}
	return nil
}

// reclaimJoined releases joined, exited threads at the epoch boundary (§3.1:
// "joined threads will be reclaimed").
func (rt *Runtime) reclaimJoined() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.threads {
		if t == nil {
			continue
		}
		if t.state.Load() == tsExited && t.joined {
			// The goroutine is at its trampoline; closing the channel ends it.
			t.setState(tsDead)
			close(t.startCh)
		}
	}
}

// clearLogs discards the previous epoch's events (§3.1 housekeeping).
func (rt *Runtime) clearLogs() {
	rt.mu.Lock()
	defer rt.mu.Unlock()
	for _, t := range rt.threads {
		if t != nil {
			t.list.Clear()
		}
	}
	for _, s := range rt.shadowList() {
		s.mu.Lock()
		s.order.Clear()
		s.mu.Unlock()
	}
}

// shutdown terminates every thread goroutine and finalizes the runtime.
func (rt *Runtime) shutdown() {
	rt.setPhase(phShutdown)
	rt.mu.Lock()
	threads := append([]*Thread(nil), rt.threads...)
	rt.mu.Unlock()
	for _, t := range threads {
		if t == nil {
			continue
		}
		if t.state.Load() != tsDead {
			func() {
				defer func() { recover() }() // startCh may already be closed
				close(t.startCh)
			}()
		}
	}
	for _, t := range threads {
		if t != nil {
			<-t.doneCh
		}
	}
}
