package core

// Offline replay: re-executing a stored trace in a fresh process.
//
// In-situ replay (§3.4) rolls the live world back to the last epoch
// checkpoint and re-executes against the in-memory lists. Offline replay is
// the same rollback in a fresh runtime. What a trace persists is exactly the
// paper's per-thread and per-variable lists (§3.2), plus enough thread
// metadata to rebuild the cast, and optionally checkpoints. The lists of a
// range of epochs, concatenated with per-variable positions rebased
// (record.Flattener), fully determine a re-execution from the checkpoint
// that begins the range — a persisted one, or program start, whose
// checkpoint needs no persisting because it is what Run takes before
// releasing the main thread:
//
//   - program order fixes each thread's sequence, the concatenated variable
//     lists fix every cross-thread interleaving, recordable syscall results
//     are returned from the log, and revocable IO is re-issued against the
//     re-created virtual OS state;
//   - epoch boundaries inside the range need no re-enactment: the
//     irrevocable-syscall dance and log-exhaustion stops exist to bound
//     in-situ rollback, and the range is itself the rollback bound;
//   - divergence checking and the randomized re-execution search (§3.5.2)
//     are inherited unchanged: every attempt, the first included, is a
//     rollback into the range's start checkpoint.
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

// PrepareReplayFlat is PrepareReplayFlatAt from program start to program end.
func PrepareReplayFlat(mod *tir.Module, fl *record.Flat, opts Options) (*Runtime, error) {
	return PrepareReplayFlatAt(mod, nil, fl, nil, opts)
}

// PrepareReplayFlatAt is the one offline-replay constructor. It builds a
// runtime primed to re-execute the flattened epoch range fl
// (record.Flattener) from the checkpoint start, whose epoch fl must begin
// at; a nil start means program start, and the runtime synthesizes the
// checkpoint Run would take there. end, when non-nil, is the checkpoint that
// closes the range: every thread is armed to stop at its recorded
// instruction position, and RunReplay verifies the end memory image
// byte-matches end before reporting success. Divergence retries roll back to
// start — the paper's one-epoch replay bound, recovered offline.
//
// The returned runtime has not started. A persisted start restores its
// filesystem state; from program start, callers that need virtual-OS state
// (input files installed by workload setup) must recreate it via rt.OS()
// before calling RunReplay. Options are interpreted as for New, except that
// recording-side hooks (TraceSink, OnEpochEnd, OnReplayMatched,
// CheckpointSink, FlightRecorder) are ignored; Mem geometry, the allocator
// selection, EventCap/VarCap and Seed must match the recording run for
// addresses to reproduce. Options.Observers ARE honored — attaching
// analyzers to the replay path is how the replay-time analysis subsystem
// (internal/analysis) works — with the caveat that epoch observers never
// fire offline (there are no epoch boundaries to re-enact).
func PrepareReplayFlatAt(mod *tir.Module, start *Checkpoint, fl *record.Flat, end *Checkpoint, opts Options) (*Runtime, error) {
	if fl == nil || fl.Epochs == 0 {
		return nil, errors.New("core: replay of an empty trace")
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
		start, err = rt.startCheckpoint(fl)
	} else {
		err = rt.os.RestoreState(start.FS)
	}
	if err == nil {
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

// seedShadows pre-creates the shadow table from a checkpoint's
// creation-ordered Vars list, verifying the IDs come out aligned (entries 0
// and 1 are the runtime pseudo-variables every runtime pre-allocates). The
// IDs matter because they are cached inside VM memory (the index word of
// each synchronization variable): a segment whose end image is
// byte-compared against a checkpoint must write the same index values the
// recording wrote. Pre-creating from the per-variable order lists alone is
// not enough — variables first touched by barrier_init or cond_signal never
// enter an order list, yet consume a shadow ID at creation.
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
// automatically on completion; callers that abandon a PrepareReplayFlatAt
// runtime before RunReplay (e.g. a failed OS setup) must call it themselves.
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

// RunReplay re-executes the loaded range to completion through the ordinary
// divergence-checking replay path: each attempt rolls back to the range's
// start checkpoint and resumes every thread live there (with the §3.5.2
// randomized delays on retries, if enabled), until the recorded schedule is
// reproduced or Options.MaxReplays attempts are exhausted. On a match it
// returns the replayed report; a trace that recorded a fault reproduces the
// fault, which is returned as the error alongside the report.
func (rt *Runtime) RunReplay() (*Report, error) {
	if !rt.offline {
		return nil, errors.New("core: RunReplay on a runtime not built by PrepareReplayFlatAt")
	}
	main := rt.thread(0) // primeAtCheckpoint guarantees it
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
	// The range's start is the observers' rollback target, captured once
	// observers attached after PrepareReplayFlatAt are in.
	rt.captureObserverState()
	if err := rt.rollbackAndReplay(); err != nil {
		return fail(err)
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
