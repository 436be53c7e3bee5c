package core

// Persistable epoch checkpoints and mid-trace replay resume.
//
// The runtime already takes a full checkpoint at every epoch boundary
// (takeCheckpoint, §3.1): the memory snapshot, allocator metadata, file
// positions, every thread's CPU context and blocking situation, and shadow
// synchronization state. In-situ those checkpoints exist only to bound
// rollback to one epoch (§3.4); offline replay (replay.go) discarded them
// and re-executed from program start, which made replay latency — and the
// cost of a single divergence retry — proportional to the whole trace.
//
// This file exports the checkpoint so the trace layer can persist it
// (Options.CheckpointEvery / Options.CheckpointSink, checkpoint frames), and
// implements the inverse: PrepareReplayFlatAt rebuilds a runtime *mid-trace*
// from a persisted checkpoint, so one long trace becomes independently
// replayable segments whose divergence retries roll back to the segment
// start — the paper's in-situ replay bound, recovered offline. A segment's
// end is pinned by the next checkpoint's per-thread instruction counts
// (interp.CPU.SetBoundary): each thread stops exactly where the recording's
// boundary caught it, which is what makes the segment's final memory image
// byte-comparable against the next checkpoint (the stitching check).

import (
	"errors"
	"fmt"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/record"
	"repro/internal/vsys"
)

// BlockState mirrors a thread's position inside a blocking primitive
// (blockInfo) in exported, encode-stable form.
type BlockState struct {
	// Kind: 0 none, 1 condition-variable wait, 2 barrier.
	Kind  int32
	VAddr uint64
	MAddr uint64
}

// ThreadState is one thread's checkpointed execution state.
type ThreadState struct {
	TID     int32
	EntryFn int32
	Exited  bool
	Joined  bool
	ExitVal uint64
	Block   BlockState
	// Ctx is the thread's CPU context, nil when Exited. Treat as immutable:
	// checkpoints are shared across concurrent segment replays.
	Ctx *interp.Context
}

// VarState is one shadow synchronization variable's checkpointed state, in
// shadow-creation order so a resuming runtime reproduces the recording's
// shadow IDs (the index words cached inside VM memory embed them).
type VarState struct {
	Addr    uint64
	Locked  bool
	Holder  int32
	Waiters int
	Fuel    int
	Parties int64
	Arrived int64
	Gen     int64
}

// Checkpoint is a fully exported epoch-boundary checkpoint: everything a
// fresh process needs to resume replaying the trace at Epoch. Instances
// handed to Options.CheckpointSink — and those a trace reader reconstructs —
// are immutable; concurrent segment replays share them.
type Checkpoint struct {
	// Epoch is the 1-based epoch this checkpoint begins: a replay seeded from
	// it re-executes epochs Epoch..j.
	Epoch int64
	// NextTID is the runtime's thread-ID watermark; IDs below it without a
	// ThreadState were reclaimed before the boundary.
	NextTID int32
	// OutputLen is the cumulative program output length at the boundary,
	// letting segment stitching attribute output to segments.
	OutputLen int
	// Snap is the writable address space image.
	Snap *mem.Snapshot
	// Alloc is the allocator metadata snapshot.
	Alloc heap.AllocSnapshot
	// FS is the virtual filesystem state (file contents + open descriptors).
	FS *vsys.State
	// Threads holds every non-reclaimed thread, ascending TID.
	Threads []ThreadState
	// Vars holds every shadow variable in creation order; entries 0 and 1 are
	// the thread-creation and super-heap pseudo-variables.
	Vars []VarState
}

// captureCheckpoint exports the in-situ checkpoint the runtime just took
// (rt.ckpt) together with the VFS state. Called from beginEpoch while the
// world is quiescent.
func (rt *Runtime) captureCheckpoint() *Checkpoint {
	ck := rt.ckpt
	out := &Checkpoint{
		Epoch:     ck.epoch,
		OutputLen: len(rt.Output()),
		Snap:      ck.snap,
		Alloc:     ck.allocSnap,
		FS:        rt.os.CheckpointState(),
	}
	rt.mu.Lock()
	out.NextTID = rt.nextTID
	threads := append([]*Thread(nil), rt.threads...)
	shadows := rt.shadowList()
	rt.mu.Unlock()
	for _, t := range threads {
		if t == nil || t.state.Load() == tsDead {
			continue
		}
		tc := ck.threads[t.id]
		out.Threads = append(out.Threads, ThreadState{
			TID:     t.id,
			EntryFn: int32(t.entryFn),
			Exited:  tc.exited,
			Joined:  tc.joined,
			ExitVal: t.exitVal,
			Block:   BlockState{Kind: int32(tc.block.kind), VAddr: tc.block.vaddr, MAddr: tc.block.maddr},
			Ctx:     tc.ctx,
		})
	}
	for _, s := range shadows {
		vc := ck.varState[s.id]
		out.Vars = append(out.Vars, VarState{
			Addr: s.addr, Locked: vc.locked, Holder: vc.holder, Waiters: vc.waiters,
			Fuel: vc.fuel, Parties: vc.parties, Arrived: vc.arrived, Gen: vc.gen,
		})
	}
	return out
}

// checkpointDue reports whether the epoch that just began should be
// persisted: every CheckpointEvery completed epochs.
func (rt *Runtime) checkpointDue() bool {
	if rt.opts.CheckpointSink == nil && rt.opts.FlightRecorder == nil {
		return false
	}
	if rt.opts.CheckpointEvery <= 0 || rt.opts.DisableRecording {
		return false
	}
	return (rt.epochSeq-1)%int64(rt.opts.CheckpointEvery) == 0
}

// primeAtCheckpoint rebuilds the world mid-trace from the persisted
// checkpoint start: the restored in-situ checkpoint (which rollbackAndReplay
// both seeds the segment from initially and re-seeds it from on divergence
// retries), the thread cast, the shadow table and the virtual filesystem.
func (rt *Runtime) primeAtCheckpoint(start *Checkpoint, fl *record.Flat, end *Checkpoint) error {
	rt.epochSeq = start.Epoch

	// Geometry and allocator selection must match the checkpoint or restores
	// would silently corrupt state.
	cfg := rt.mem.Config()
	g, h, s := start.Snap.Lens()
	if int64(g) != cfg.GlobalSize || int64(h) != cfg.HeapSize || int64(s) != cfg.StackSlot*int64(cfg.MaxThreads) {
		return fmt.Errorf("core: checkpoint memory geometry %d/%d/%d does not match options %d/%d/%d",
			g, h, s, cfg.GlobalSize, cfg.HeapSize, cfg.StackSlot*int64(cfg.MaxThreads))
	}
	if heap.SnapshotKindDeterministic(start.Alloc) == rt.opts.UseLibCAllocator {
		return errors.New("core: checkpoint allocator snapshot does not match the configured allocator")
	}

	ck := &checkpoint{
		epoch:     start.Epoch,
		snap:      start.Snap,
		allocSnap: start.Alloc,
		positions: make(map[int64]int64, len(start.FS.FDs)),
		threads:   make(map[int32]threadCkpt, len(start.Threads)),
		varState:  make(map[int32]varCkpt, len(start.Vars)),
	}
	for _, f := range start.FS.FDs {
		ck.positions[f.FD] = f.Pos
	}

	// Rebuild the cast: every TID below the watermark is either a
	// checkpointed thread (live or parked-exited) or a reclaimed slot that
	// only holds its ID.
	byTID := make(map[int32]*ThreadState, len(start.Threads))
	for i := range start.Threads {
		ts := &start.Threads[i]
		if ts.TID < 0 || ts.TID >= start.NextTID {
			return fmt.Errorf("core: checkpoint thread %d outside TID watermark %d", ts.TID, start.NextTID)
		}
		if !ts.Exited && ts.Ctx == nil {
			return fmt.Errorf("core: checkpoint thread %d is live but has no context", ts.TID)
		}
		byTID[ts.TID] = ts
	}
	if byTID[0] == nil {
		return errors.New("core: checkpoint lacks the main thread")
	}
	live := false
	for id := int32(0); id < start.NextTID; id++ {
		ts := byTID[id]
		if ts == nil {
			// Reclaimed before the boundary: a dead placeholder keeps the TID
			// sequence (and stack-slot assignment) aligned.
			t, err := rt.newThread(0, 0, false)
			if err != nil {
				return err
			}
			t.setState(tsDead)
			close(t.startCh)
			close(t.doneCh)
			continue
		}
		if ts.EntryFn < 0 || int(ts.EntryFn) >= len(rt.mod.Funcs) {
			return fmt.Errorf("core: checkpoint thread %d has invalid entry function %d", id, ts.EntryFn)
		}
		t, err := rt.newThread(int(ts.EntryFn), 0, id != 0)
		if err != nil {
			return err
		}
		if t.id != id {
			return fmt.Errorf("core: checkpoint thread %d materialized as %d", id, t.id)
		}
		t.exitVal = ts.ExitVal
		t.bornEpoch = 0 // born before the segment
		ck.threads[id] = threadCkpt{
			ctx:    ts.Ctx,
			exited: ts.Exited,
			joined: ts.Joined,
			block:  blockInfo{kind: blockKind(ts.Block.Kind), vaddr: ts.Block.VAddr, maddr: ts.Block.MAddr},
		}
		if !ts.Exited {
			live = true
		}
		go t.trampoline()
	}
	if !live {
		return errors.New("core: checkpoint has no live thread to resume")
	}
	// Threads born during the segment start as embryos; their replayed
	// creation events release them (§3.5.1).
	for _, tl := range fl.Threads {
		if tl.TID < start.NextTID {
			ts := byTID[tl.TID]
			if ts == nil {
				return fmt.Errorf("core: segment epochs log thread %d, reclaimed before the checkpoint", tl.TID)
			}
			if ts.EntryFn != tl.EntryFn {
				return fmt.Errorf("core: thread %d entry function mismatch between checkpoint and epochs (%d vs %d)",
					tl.TID, ts.EntryFn, tl.EntryFn)
			}
			continue
		}
		if tl.EntryFn < 0 || int(tl.EntryFn) >= len(rt.mod.Funcs) {
			return fmt.Errorf("core: trace thread %d has invalid entry function %d", tl.TID, tl.EntryFn)
		}
		t, err := rt.newThread(int(tl.EntryFn), 0, true)
		if err != nil {
			return err
		}
		if t.id != tl.TID {
			return fmt.Errorf("core: trace thread %d materialized as %d", tl.TID, t.id)
		}
		go t.trampoline()
	}

	// Shadow variables, in checkpoint creation order so IDs reproduce the
	// recording's (the index words inside the restored memory embed them).
	// When the segment has an end checkpoint, its table — a superset of the
	// start's, since shadow creation is append-only — additionally fixes the
	// IDs of variables first used *during* the segment, including those
	// (barriers, bare signals) that never enter a per-variable order list.
	seed := start.Vars
	if end != nil {
		if len(end.Vars) < len(start.Vars) {
			return errors.New("core: end checkpoint shadow table shorter than the start's")
		}
		for i := range start.Vars {
			if end.Vars[i].Addr != start.Vars[i].Addr {
				return fmt.Errorf("core: shadow table mismatch between checkpoints at id %d (%#x vs %#x)",
					i, start.Vars[i].Addr, end.Vars[i].Addr)
			}
		}
		seed = end.Vars
	}
	if err := rt.seedShadows(seed); err != nil {
		return err
	}
	for i := range start.Vars {
		vs := &start.Vars[i]
		ck.varState[int32(i)] = varCkpt{
			locked: vs.Locked, holder: vs.Holder, waiters: vs.Waiters, fuel: vs.Fuel,
			parties: vs.Parties, arrived: vs.Arrived, gen: vs.Gen,
		}
	}

	// The virtual filesystem resumes at the boundary's contents and open
	// descriptors; divergence retries restore positions only, as in-situ
	// rollback does (replayed writes reproduce contents).
	if err := rt.os.RestoreState(start.FS); err != nil {
		return err
	}
	rt.ckpt = ck
	rt.segStart = start
	return nil
}

// armSegmentEnd pins every thread that is still live at the segment's end
// checkpoint to stop at its recorded instruction position.
func (rt *Runtime) armSegmentEnd(end *Checkpoint) error {
	if end == nil {
		return nil
	}
	for i := range end.Threads {
		ts := &end.Threads[i]
		if ts.Exited || ts.Ctx == nil {
			continue
		}
		t := rt.thread(ts.TID)
		if t == nil {
			return fmt.Errorf("core: end checkpoint thread %d does not exist in the segment", ts.TID)
		}
		t.cpu.SetBoundary(ts.Ctx.Instrs)
		t.cpu.OnBoundary = t.parkBoundary
	}
	rt.segEnd = end
	return nil
}

// verifySegmentEnd is the stitching check, run after a matched segment
// replay while the world is still quiescent: the end memory image must
// byte-match the next checkpoint over the whole address space, and the
// segment must have produced exactly the output the recording attributed to
// it. The snapshot copies the pages the segment stored to and shares the rest
// with the start checkpoint, which the end checkpoint was folded from; Equal
// byte-compares every page the two tables do not hold by the same pointer, so
// no page is ever assumed clean — a shared page is equal because pages are
// immutable.
func (rt *Runtime) verifySegmentEnd() error {
	end := rt.segEnd
	if end == nil {
		return nil
	}
	snap := rt.mem.Snapshot()
	if !snap.Equal(end.Snap) {
		return fmt.Errorf("core: segment end state diverges from checkpoint at epoch %d (%d bytes differ)",
			end.Epoch, snap.DiffCount(end.Snap))
	}
	startLen := 0
	if rt.segStart != nil {
		startLen = rt.segStart.OutputLen
	}
	if got, want := len(rt.Output()), end.OutputLen-startLen; got != want {
		return fmt.Errorf("core: segment produced %d output bytes, recording attributed %d", got, want)
	}
	return nil
}
