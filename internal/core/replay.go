package core

// Offline replay: re-executing a stored trace in a fresh process.
//
// In-situ replay (§3.4) rolls the live world back to the last epoch
// checkpoint and re-executes against the in-memory lists. Offline replay has
// no live world and no serialized CPU contexts — what a trace persists is
// exactly the paper's per-thread and per-variable lists (§3.2), plus enough
// thread metadata to rebuild the cast. That is sufficient because the lists
// of *all* epochs, concatenated with per-variable positions rebased
// (record.Flattener), fully determine a re-execution from program start:
//
//   - program order fixes each thread's sequence, the concatenated variable
//     lists fix every cross-thread interleaving, recordable syscall results
//     are returned from the log, and revocable IO is re-issued against the
//     re-created virtual OS state;
//   - epoch boundaries need no re-enactment: the irrevocable-syscall dance
//     and log-exhaustion stops exist to bound in-situ rollback, and a
//     whole-program replay has nothing to bound;
//   - divergence checking and the randomized re-execution search (§3.5.2)
//     are inherited unchanged — the program-start checkpoint taken before
//     releasing the main thread is a perfectly ordinary rollback target, so
//     a diverged attempt restarts the program exactly like an in-situ retry
//     restarts an epoch.
//
// PrepareReplayFlatAt builds the primed runtime (callers may still populate
// the virtual OS with the workload's input files) and RunReplay drives it.

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/record"
	"repro/internal/tir"
)

// PrepareReplay builds a runtime primed to re-execute the recorded epochs of
// a trace from program start. The returned runtime has not started: callers
// that need virtual-OS state (input files installed by workload setup) must
// recreate it via rt.OS() before calling RunReplay. Options are interpreted
// as for New, except that recording-side hooks (TraceSink, OnEpochEnd,
// OnReplayMatched) are ignored; Mem, EventCap, VarCap and the allocator
// selection must match the recording run for addresses to reproduce.
// Options.Observers ARE honored — attaching analyzers to the replay path is
// how the replay-time analysis subsystem (internal/analysis) works — with
// the caveat that epoch observers never fire offline (there are no epoch
// boundaries to re-enact).
func PrepareReplay(mod *tir.Module, epochs []*record.EpochLog, opts Options) (*Runtime, error) {
	f := record.NewFlattener()
	for _, ep := range epochs {
		f.Add(ep)
	}
	fl, err := f.Flat()
	if err != nil {
		return nil, err
	}
	return PrepareReplayFlatAt(mod, nil, fl, nil, opts)
}

// PrepareReplayFlat is PrepareReplay for an already flattened trace: callers
// that stream epoch frames through bounded windows (record.Flattener) hand
// over the flattened per-thread/per-variable lists instead of pinning every
// decoded epoch for the runtime's construction. Semantics are identical to
// PrepareReplay over the same epoch range.
func PrepareReplayFlat(mod *tir.Module, fl *record.Flat, opts Options) (*Runtime, error) {
	return PrepareReplayFlatAt(mod, nil, fl, nil, opts)
}

// PrepareReplayFlatAt is the one offline-replay constructor, the one the
// trace executor (trace/exec.go) calls; PrepareReplay and PrepareReplayFlat
// are its program-start forms. It builds a runtime primed to re-execute the
// flattened epoch range fl — from program start when start is nil,
// otherwise resuming mid-trace from the persisted checkpoint start, whose
// epoch fl must begin at. end, when non-nil, is the checkpoint that closes
// the range: every thread is armed to stop at its recorded instruction
// position, and RunReplay verifies the end memory image byte-matches end
// before reporting success. Divergence retries roll back to the range's
// start (program start or the checkpoint) — the paper's one-epoch replay
// bound, recovered offline.
//
// Options are interpreted as for PrepareReplay; Mem geometry, the allocator
// selection, EventCap/VarCap and Seed must match the recording run.
func PrepareReplayFlatAt(mod *tir.Module, start *Checkpoint, fl *record.Flat, end *Checkpoint, opts Options) (*Runtime, error) {
	if fl == nil || fl.Epochs == 0 {
		return nil, errors.New("core: replay of an empty trace")
	}
	if start != nil && fl.First != start.Epoch {
		return nil, fmt.Errorf("core: segment epochs begin at %d, checkpoint at %d", fl.First, start.Epoch)
	}
	if last := fl.First + fl.Epochs - 1; start != nil && end != nil && end.Epoch != last+1 {
		return nil, fmt.Errorf("core: segment ends at epoch %d but next checkpoint begins %d", last, end.Epoch)
	}
	opts.TraceSink = nil
	opts.OnEpochEnd = nil
	opts.OnReplayMatched = nil
	opts.CheckpointSink = nil
	opts.FlightRecorder = nil
	opts.DisableRecording = false
	rt, err := New(mod, opts)
	if err != nil {
		return nil, err
	}
	rt.offline = true
	// The final epoch's stop reason matters for one check: a trace that ended
	// in a fault must see the same fault again — onTrap treats a trap after a
	// fully consumed list as the matching outcome only under StopFault.
	rt.stopReason = StopReason(fl.Reason)
	rt.stats.Epochs = fl.Epochs
	rt.epochStart = time.Now() //ir:wallclock epoch timeline telemetry

	if start == nil {
		err = rt.primeAtStart(fl, end)
	} else {
		err = rt.primeAtCheckpoint(start, fl, end)
	}
	if err == nil {
		rt.loadLists(fl)
		err = rt.armSegmentEnd(end)
	}
	if err != nil {
		// Once any trampoline is live, error paths must reap it; nobody
		// will see this runtime, so its address space goes back too.
		rt.shutdown()
		rt.Release()
		return nil, err
	}
	return rt, nil
}

// loadLists installs the flattened per-thread and per-variable lists. Every
// logged thread exists by now (threads without events in the range keep
// their empty, trivially-replayed lists) and the shadow table is seeded, so
// the recorded orders are in place before first use.
func (rt *Runtime) loadLists(fl *record.Flat) {
	rt.mu.Lock()
	for _, tl := range fl.Threads {
		rt.threads[tl.TID].list = record.LoadThreadList(tl.Events)
	}
	rt.mu.Unlock()
	for _, vl := range fl.Vars {
		s := rt.replayVarFor(vl.Addr)
		s.mu.Lock()
		s.order = record.LoadVarList(vl.Order)
		s.mu.Unlock()
	}
}

// primeAtStart builds the program-start cast: the main thread and the
// program-start checkpoint exactly as Run does, then every other recorded
// thread as an embryo. The shadow table is seeded from end's
// creation-ordered table when there is one, so the replay assigns exactly
// the recording's shadow IDs. The IDs matter because they are cached inside
// VM memory (the index word of each synchronization variable): a segment
// whose end image is byte-compared against a checkpoint must write the same
// index values the recording wrote. Pre-creating from the per-variable
// order lists alone is not enough — variables first touched by barrier_init
// or cond_signal never enter an order list, yet consume a shadow ID at
// creation.
func (rt *Runtime) primeAtStart(fl *record.Flat, end *Checkpoint) error {
	threads := fl.Threads
	if len(threads) == 0 || len(threads[0].Events) == 0 {
		return errors.New("core: trace has no main-thread events")
	}
	for i, tl := range threads {
		// Replay from program start needs dense TIDs: each recorded thread is
		// pre-created in slot order below.
		if tl.TID != int32(i) {
			return fmt.Errorf("core: non-dense thread IDs in flattened trace (slot %d holds tid %d)",
				i, tl.TID)
		}
		if tl.TID != 0 && (tl.EntryFn < 0 || int(tl.EntryFn) >= len(rt.mod.Funcs)) {
			return fmt.Errorf("core: trace thread %d has invalid entry function %d",
				tl.TID, tl.EntryFn)
		}
	}
	// Main thread and the program-start checkpoint. Its trampoline starts
	// parked on the start channel; RunReplay releases it.
	main, err := rt.newThread(rt.mod.Entry, 0, false)
	if err != nil {
		return err
	}
	main.cpu.Start(rt.mod.Entry, nil)
	rt.epochSeq = 1
	rt.takeCheckpoint()
	go main.trampoline()

	// Pre-create every other recorded thread in embryo state, after the
	// checkpoint so that a divergence rollback reverts it to an embryo again
	// (the !inCkpt arm of rollbackAndReplay). Its replayed creation event
	// releases it, as for threads born during an in-situ dead epoch (§3.5.1).
	for _, tl := range threads[1:] {
		t, err := rt.newThread(int(tl.EntryFn), 0, true)
		if err != nil {
			return err
		}
		go t.trampoline()
		if t.id != tl.TID {
			return fmt.Errorf("core: trace thread %d materialized as %d", tl.TID, t.id)
		}
	}
	if end == nil {
		return nil
	}
	return rt.seedShadows(end.Vars)
}

// seedShadows pre-creates the shadow table from a checkpoint's
// creation-ordered Vars list, verifying the IDs come out aligned (entries 0
// and 1 are the runtime pseudo-variables every runtime pre-allocates).
func (rt *Runtime) seedShadows(vars []VarState) error {
	if len(vars) == 0 {
		return nil
	}
	if len(vars) < 2 || vars[0].Addr != createVarAddr || vars[1].Addr != superVarAddr {
		return errors.New("core: checkpoint shadow table lacks the runtime pseudo-variables")
	}
	for i := range vars {
		sv := rt.replayVarFor(vars[i].Addr)
		if int(sv.id) != i {
			return fmt.Errorf("core: checkpoint shadow %#x materialized as id %d, want %d",
				vars[i].Addr, sv.id, i)
		}
	}
	return nil
}

// Shutdown reaps a runtime's thread goroutines. Run and RunReplay shut down
// automatically on completion; callers that abandon a PrepareReplay runtime
// before RunReplay (e.g. a failed OS setup) must call it themselves.
func (rt *Runtime) Shutdown() { rt.shutdown() }

// Release gives the runtime's address space back for reuse by the next
// runtime of the same geometry (mem.Memory.Release). Callers that read
// nothing of a finished runtime — not its memory, not its allocator — call
// it; afterwards every guest load and store through Mem faults. It panics
// unless the runtime has shut down (Run or RunReplay returned, or Shutdown
// was called), so memory is never recycled under a live vthread. A second
// call is a no-op.
func (rt *Runtime) Release() {
	if rt.phase() != phShutdown {
		panic("core: Release of a runtime that has not shut down")
	}
	rt.mem.Release()
}

// replayVarFor resolves (or pre-creates) the shadow for addr without touching
// VM memory — memory is still at its program-start state and varFor caches
// the index word lazily on first use during the replay itself.
func (rt *Runtime) replayVarFor(addr uint64) *syncVar {
	switch addr {
	case createVarAddr:
		return rt.createVar
	case superVarAddr:
		return rt.superVar
	}
	rt.mu.Lock()
	defer rt.mu.Unlock()
	if s, ok := rt.shadows[addr]; ok {
		return s
	}
	return rt.newSyncVarLocked(addr)
}

// RunReplay re-executes the loaded trace to completion through the ordinary
// divergence-checking replay path, retrying from program start (with the
// §3.5.2 randomized delays, if enabled) until the recorded schedule is
// reproduced or Options.MaxReplays attempts are exhausted. On a match it
// returns the replayed report; a trace that recorded a fault reproduces the
// fault, which is returned as the error alongside the report.
func (rt *Runtime) RunReplay() (*Report, error) {
	if !rt.offline {
		return nil, errors.New("core: RunReplay on a runtime not built by PrepareReplay")
	}
	main := rt.thread(0)
	if main == nil {
		rt.shutdown()
		return nil, errors.New("core: replay runtime has no main thread")
	}
	// In-situ replay inherits the paper's unlimited default search; offline a
	// runaway search has no user watching it, so an unset bound gets a large
	// finite default and surfaces as an error instead of spinning forever.
	maxReplays := rt.opts.MaxReplays
	if maxReplays == 0 {
		maxReplays = 256
	}
	rt.divMu.Lock()
	rt.attempt.Store(1)
	rt.divMu.Unlock()
	rt.stats.Replays++
	// fail reaps the thread goroutines on every error path.
	fail := func(err error) (*Report, error) {
		rt.shutdown()
		return nil, err
	}
	if rt.segStart != nil {
		// Mid-trace segment: seed the world from the restored checkpoint and
		// resume every thread at its checkpointed context — the same path a
		// divergence retry takes, pointed at the segment start.
		if err := rt.rollbackAndReplay(); err != nil {
			return fail(err)
		}
	} else {
		rt.setPhase(phReplay)
		// Main is counted running before it is released, so the wait below
		// cannot see an all-parked world in the hand-off window.
		main.setState(tsRunning)
		main.startCh <- startMsg{kind: smStart}
	}

	attempt := 1
	for {
		if err := rt.awaitQuiescence(); err != nil {
			return fail(err)
		}
		// A caller-interrupted replay stops here: interception sites have
		// already unwound the running threads (intercept returns errShutdown
		// once the interrupt latches), so quiescence arrives promptly.
		if err := rt.pollInterrupt(); err != nil {
			return fail(fmt.Errorf("core: replay interrupted: %w", err))
		}
		// Quiescent is a fact: nothing is runnable, so unreplayed events are a
		// stall whatever the host's scheduler is doing, and replayMatched calls
		// it a divergence at once.
		if rt.replayMatched() {
			rt.stats.MatchedReplays++
			rt.stats.LastReplayAttempts = attempt
			break
		}
		if attempt >= maxReplays {
			return fail(fmt.Errorf("core: offline replay diverged %d times without matching: %s",
				attempt, rt.DivergenceInfo()))
		}
		attempt++
		rt.stats.Replays++
		rt.divMu.Lock()
		rt.attempt.Store(int32(attempt))
		rt.diverged = false
		rt.divMu.Unlock()
		if err := rt.rollbackAndReplay(); err != nil {
			return fail(err)
		}
	}

	// Stitching check for segment replays: the matched schedule must also
	// land on the next checkpoint's exact memory image and output budget.
	if err := rt.verifySegmentEnd(); err != nil {
		return fail(err)
	}

	rep := &Report{
		Exit:   main.exitVal,
		Stats:  rt.StatsSnapshot(),
		Output: rt.Output(),
	}
	_, ferr := rt.FaultedThread()
	rt.shutdown()
	return rep, ferr
}
