package core

// Epoch checkpoints: the one state every replay starts from.
//
// The runtime takes a Checkpoint at every epoch boundary (takeCheckpoint,
// §3.1): the memory snapshot, allocator metadata, file positions, every
// thread's CPU context, exit value and blocking situation, and shadow
// synchronization state. In situ it is the rollback state that bounds
// re-execution to one epoch (§3.4); the trace layer persists the same value
// (Options.CheckpointEvery / Options.CheckpointSink, checkpoint frames).
//
// Offline, PrepareReplayFlatAt installs a checkpoint as the rollback state
// of a fresh runtime — a persisted one to resume mid-trace, or the
// program-start one it synthesizes as Run takes it — and RunReplay's first
// attempt is an ordinary rollback into it. One long trace thus becomes
// independently replayable segments whose divergence retries roll back to
// the segment start: the paper's in-situ replay bound, recovered offline. A
// segment's end is pinned by the next checkpoint's per-thread instruction
// counts (interp.CPU.SetBoundary): each thread stops exactly where the
// recording's boundary caught it, which is what makes the segment's final
// memory image byte-comparable against the next checkpoint (the stitching
// check).

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/mem"
	"repro/internal/record"
	"repro/internal/vsys"
)

// BlockState is a thread's position inside a blocking primitive, the state
// that must survive rollback for a thread already waiting at the checkpoint
// (§3.1: waiting threads are checkpointed in their waiting state).
type BlockState struct {
	// Kind: 0 none, 1 condition-variable wait, 2 barrier.
	Kind  int32
	VAddr uint64 // condition variable or barrier address
	MAddr uint64 // mutex released by a cond wait
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

// VarState is one shadow synchronization variable's checkpointed state:
// everything a waiting thread's re-entry depends on. A checkpoint lists them
// in shadow-creation order, so a resuming runtime reproduces the recording's
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

// Checkpoint is an epoch-boundary checkpoint: everything needed to resume
// re-executing at Epoch, in this process or a fresh one. It is the runtime's
// rollback state, and the instances handed to Options.CheckpointSink — and
// those a trace reader reconstructs — are immutable: concurrent segment
// replays share them, and rollback only reads them.
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
	// FS is the virtual filesystem state: the open descriptors always, the
	// file contents only in a checkpoint taken for persistence.
	FS *vsys.State
	// Threads holds every non-reclaimed thread, ascending TID.
	Threads []ThreadState
	// Vars holds every shadow variable in creation order; entries 0 and 1 are
	// the thread-creation and super-heap pseudo-variables.
	Vars []VarState
}

// thread returns tid's state, or nil for a thread born after the checkpoint
// or reclaimed before it.
func (ck *Checkpoint) thread(tid int32) *ThreadState {
	i := sort.Search(len(ck.Threads), func(i int) bool { return ck.Threads[i].TID >= tid })
	if i < len(ck.Threads) && ck.Threads[i].TID == tid {
		return &ck.Threads[i]
	}
	return nil
}

// takeCheckpoint captures the state at the beginning of the current epoch
// (§3.1) while the world is quiescent. File contents are copied only for a
// checkpoint that will be persisted; rollback restores descriptor positions
// alone, as replayed writes reproduce contents.
func (rt *Runtime) takeCheckpoint(persist bool) *Checkpoint {
	ck := &Checkpoint{
		Epoch:     rt.epochSeq,
		OutputLen: len(rt.Output()),
		Snap:      rt.mem.Snapshot(),
		Alloc:     rt.alloc.Snapshot(),
		FS:        rt.os.CheckpointState(persist),
	}
	rt.stats.CheckpointPages += int64(ck.Snap.PagesCopied())
	rt.mu.Lock()
	ck.NextTID = rt.nextTID
	ck.Threads = make([]ThreadState, 0, len(rt.threads))
	for _, t := range rt.threads {
		if t == nil || t.state.Load() == tsDead {
			continue
		}
		ts := ThreadState{
			TID:     t.id,
			EntryFn: int32(t.entryFn),
			Exited:  t.state.Load() == tsExited,
			Joined:  t.joined,
			ExitVal: t.exitVal,
			Block:   t.block,
		}
		if !ts.Exited {
			ts.Ctx = t.cpu.GetContext()
		}
		ck.Threads = append(ck.Threads, ts)
	}
	shadows := rt.shadowList()
	rt.mu.Unlock()
	ck.Vars = make([]VarState, len(shadows))
	for i, s := range shadows {
		ck.Vars[i] = s.checkpoint()
	}
	return ck
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

// startCheckpoint synthesizes the checkpoint Run takes at program start, for
// a replay from there: epoch 1, the main thread about to enter the module's
// entry function, the initialized globals, the empty allocator and the two
// pseudo-variables. It carries no file contents — the caller's setup
// installs the input files after construction — so rollback into it
// restores descriptor positions only, as in-situ rollback does.
func (rt *Runtime) startCheckpoint(fl *record.Flat) (*Checkpoint, error) {
	if len(fl.Threads) == 0 || len(fl.Threads[0].Events) == 0 {
		return nil, errors.New("core: trace has no main-thread events")
	}
	lo, size := rt.mem.StackRange(0)
	cpu := interp.New(rt.mod, rt.mem, nil, lo, size)
	cpu.Start(rt.mod.Entry, nil)
	rt.epochSeq = 1
	ck := rt.takeCheckpoint(false)
	ck.NextTID = 1
	ck.Threads = []ThreadState{{EntryFn: int32(rt.mod.Entry), Ctx: cpu.GetContext()}}
	return ck, nil
}

// primeAtCheckpoint builds the world a replay of fl resumes into from start:
// the thread cast start describes, every thread fl logs past its watermark
// as an embryo, and the shadow table. It installs start as the rollback
// state, so RunReplay's first attempt is an ordinary rollback into it, and
// so is every divergence retry.
func (rt *Runtime) primeAtCheckpoint(start *Checkpoint, fl *record.Flat, end *Checkpoint) error {
	if fl.First != start.Epoch {
		return fmt.Errorf("core: segment epochs begin at %d, checkpoint at %d", fl.First, start.Epoch)
	}
	if last := fl.First + fl.Epochs - 1; end != nil && end.Epoch != last+1 {
		return fmt.Errorf("core: segment ends at epoch %d but next checkpoint begins %d", last, end.Epoch)
	}
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

	// Rebuild the cast: every TID below the watermark is either a
	// checkpointed thread (live or parked-exited) or a reclaimed slot that
	// only holds its ID.
	for i := range start.Threads {
		ts := &start.Threads[i]
		if ts.TID < 0 || ts.TID >= start.NextTID || (i > 0 && ts.TID <= start.Threads[i-1].TID) {
			return fmt.Errorf("core: checkpoint thread %d out of order or outside TID watermark %d", ts.TID, start.NextTID)
		}
		if !ts.Exited && ts.Ctx == nil {
			return fmt.Errorf("core: checkpoint thread %d is live but has no context", ts.TID)
		}
	}
	if start.thread(0) == nil {
		return errors.New("core: checkpoint lacks the main thread")
	}
	live := false
	for id := int32(0); id < start.NextTID; id++ {
		ts := start.thread(id)
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
		go t.trampoline()
		if !ts.Exited {
			live = true
		}
	}
	if !live {
		return errors.New("core: checkpoint has no live thread to resume")
	}
	// Threads born during the replayed range start as embryos; their replayed
	// creation events release them (§3.5.1), and a rollback reverts them to
	// embryos again, as for threads born during an in-situ dead epoch.
	for _, tl := range fl.Threads {
		if tl.TID < start.NextTID {
			ts := start.thread(tl.TID)
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
		go t.trampoline() // before the error return below: shutdown reaps it
		if t.id != tl.TID {
			return fmt.Errorf("core: non-dense thread IDs past the checkpoint: trace thread %d materialized as %d", tl.TID, t.id)
		}
	}

	// Shadow variables, in checkpoint creation order so IDs reproduce the
	// recording's (the index words inside the restored memory embed them).
	// When the range has an end checkpoint, its table — a superset of the
	// start's, since shadow creation is append-only — additionally fixes the
	// IDs of variables first used *during* the range, including those
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
	rt.ckpt = start
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
	if got, want := len(rt.Output()), end.OutputLen-rt.ckpt.OutputLen; got != want {
		return fmt.Errorf("core: segment produced %d output bytes, recording attributed %d", got, want)
	}
	return nil
}
