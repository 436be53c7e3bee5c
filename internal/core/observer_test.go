package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"sync"
	"testing"

	"repro/internal/interp"
	"repro/internal/record"
)

// seqObserver records every callback as a compact event for ordering
// assertions. It implements all observer capabilities.
type seqObserver struct {
	mu     sync.Mutex
	syncs  []obsSync
	life   []obsLife
	allocs int
	frees  int
	calls  int
	resets int
	access int
}

type obsSync struct {
	tid  int32
	op   SyncOp
	addr uint64
}

type obsLife struct {
	kind string // "create", "exit", "join"
	a, b int32
}

func (o *seqObserver) OnSync(tid int32, op SyncOp, addr uint64) {
	o.mu.Lock()
	o.syncs = append(o.syncs, obsSync{tid, op, addr})
	o.mu.Unlock()
}
func (o *seqObserver) OnThreadCreate(parent, child int32) {
	o.mu.Lock()
	o.life = append(o.life, obsLife{"create", parent, child})
	o.mu.Unlock()
}
func (o *seqObserver) OnThreadExit(tid int32) {
	o.mu.Lock()
	o.life = append(o.life, obsLife{"exit", tid, -1})
	o.mu.Unlock()
}
func (o *seqObserver) OnThreadJoin(joiner, joinee int32) {
	o.mu.Lock()
	o.life = append(o.life, obsLife{"join", joiner, joinee})
	o.mu.Unlock()
}
func (o *seqObserver) OnAlloc(tid int32, addr uint64, size int64, stack []interp.StackEntry) {
	o.mu.Lock()
	o.allocs++
	o.mu.Unlock()
}
func (o *seqObserver) OnFree(tid int32, addr uint64, stack []interp.StackEntry) {
	o.mu.Lock()
	o.frees++
	o.mu.Unlock()
}
func (o *seqObserver) OnSyscall(tid int32, num int64, ret uint64) {
	o.mu.Lock()
	o.calls++
	o.mu.Unlock()
}
func (o *seqObserver) OnAccess(tid int32, addr uint64, size int, write, atomic bool,
	stack func() []interp.StackEntry) {
	o.mu.Lock()
	o.access++
	o.mu.Unlock()
}
func (o *seqObserver) OnReset() {
	o.mu.Lock()
	o.resets++
	o.mu.Unlock()
}

// checkSyncStream asserts per-variable sanity: acquisitions and releases of
// each mutex alternate, starting with an acquisition, each release by the
// thread holding the lock.
func checkSyncStream(t *testing.T, syncs []obsSync) {
	t.Helper()
	type lockState struct {
		held   bool
		holder int32
	}
	locks := map[uint64]*lockState{}
	for i, e := range syncs {
		if e.addr == createVarAddr || e.addr == superVarAddr {
			t.Fatalf("sync event %d leaked a runtime pseudo-variable: %+v", i, e)
		}
		switch e.op {
		case SyncAcquire:
			st := locks[e.addr]
			if st == nil {
				st = &lockState{}
				locks[e.addr] = st
			}
			if st.held {
				t.Fatalf("event %d: %#x acquired while held by %d: %+v", i, e.addr, st.holder, e)
			}
			st.held, st.holder = true, e.tid
		case SyncRelease:
			st := locks[e.addr]
			if st == nil || !st.held || st.holder != e.tid {
				t.Fatalf("event %d: release of %#x without matching acquire: %+v", i, e.addr, e)
			}
			st.held = false
		}
	}
}

// checkLifeStream asserts creation precedes exit precedes join per thread.
func checkLifeStream(t *testing.T, life []obsLife) {
	t.Helper()
	created := map[int32]bool{0: true}
	exited := map[int32]bool{}
	for i, e := range life {
		switch e.kind {
		case "create":
			if created[e.b] {
				t.Fatalf("event %d: thread %d created twice", i, e.b)
			}
			created[e.b] = true
		case "exit":
			if !created[e.a] {
				t.Fatalf("event %d: thread %d exited before creation", i, e.a)
			}
			exited[e.a] = true
		case "join":
			if !exited[e.b] {
				t.Fatalf("event %d: thread %d joined before its exit was observed", i, e.b)
			}
		}
	}
}

// TestObserverStreamRecording: the observer surface during an in-situ
// recording delivers a coherent stream.
func TestObserverStreamRecording(t *testing.T) {
	mod := buildCounter(3, 20)
	obs := &seqObserver{}
	rt, err := New(mod, Options{Seed: 3, Observers: []Observer{obs}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(obs.syncs) == 0 || obs.access == 0 {
		t.Fatalf("observer saw nothing: %d syncs, %d accesses", len(obs.syncs), obs.access)
	}
	checkSyncStream(t, obs.syncs)
	checkLifeStream(t, obs.life)
}

// TestObserverStreamOfflineReplay: the same program's stored trace,
// replayed offline with an observer attached via AttachObserver (the
// retrofit path — PrepareReplayFlatAt pre-creates every thread), delivers the
// same per-variable sync counts as the recording observer saw.
func TestObserverStreamOfflineReplay(t *testing.T) {
	mod := buildCounter(3, 20)
	var epochs []*record.EpochLog
	recObs := &seqObserver{}
	rt, err := New(mod, Options{
		Seed:      3,
		Observers: []Observer{recObs},
		TraceSink: func(ep *record.EpochLog) error { epochs = append(epochs, ep); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	obs := &seqObserver{}
	rrt, err := prepareReplay(mod, epochs, Options{DelayOnDivergence: true})
	if err != nil {
		t.Fatal(err)
	}
	rrt.AttachObserver(obs)
	if _, err := rrt.RunReplay(); err != nil {
		t.Fatal(err)
	}
	checkSyncStream(t, obs.syncs)
	checkLifeStream(t, obs.life)

	count := func(events []obsSync, op SyncOp) map[uint64]int {
		out := map[uint64]int{}
		for _, e := range events {
			if e.op == op {
				out[e.addr]++
			}
		}
		return out
	}
	// Identical replay must deliver identical per-variable acquisition
	// counts (obs.resets counts attempts, each a rollback into the start
	// checkpoint; a diverged attempt's partial stream is discarded, so
	// compare only if no retry happened — with retries the final attempt
	// still ends matched, but our counters accumulate, hence the guard).
	if obs.resets != 1 && rrt.StatsSnapshot().Replays == 1 {
		t.Fatalf("one attempt delivered %d resets, want the one rollback into the start checkpoint", obs.resets)
	}
	if obs.resets == 1 {
		rec := count(recObs.syncs, SyncAcquire)
		rep := count(obs.syncs, SyncAcquire)
		if len(rec) != len(rep) {
			t.Fatalf("replay touched %d mutexes, recording %d", len(rep), len(rec))
		}
		for addr, n := range rec {
			if rep[addr] != n {
				t.Errorf("mutex %#x: %d replayed acquisitions, %d recorded", addr, rep[addr], n)
			}
		}
		if obs.access != recObs.access {
			t.Errorf("replay delivered %d accesses, recording %d", obs.access, recObs.access)
		}
		if obs.allocs != recObs.allocs || obs.frees != recObs.frees {
			t.Errorf("replay delivered %d/%d alloc/free, recording %d/%d",
				obs.allocs, obs.frees, recObs.allocs, recObs.frees)
		}
	}
}

// stateLog is a StateObserver whose state is the number of sync operations
// it has observed. It logs every encoding it produces and every input it is
// handed back, in order.
type stateLog struct {
	mu    sync.Mutex
	syncs uint64
	log   []stateLogEntry
}

type stateLogEntry struct {
	decode bool
	b      []byte
}

func (o *stateLog) OnSync(tid int32, op SyncOp, addr uint64) {
	o.mu.Lock()
	o.syncs++
	o.mu.Unlock()
}

func (o *stateLog) AppendState(b []byte) []byte {
	o.mu.Lock()
	defer o.mu.Unlock()
	n := len(b)
	b = binary.AppendUvarint(b, o.syncs)
	o.log = append(o.log, stateLogEntry{b: bytes.Clone(b[n:])})
	return b
}

func (o *stateLog) DecodeState(b []byte) ([]byte, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	v, n := binary.Uvarint(b)
	if n <= 0 {
		return nil, errors.New("truncated state")
	}
	o.log = append(o.log, stateLogEntry{decode: true, b: bytes.Clone(b[:n])})
	o.syncs = v
	return b[n:], nil
}

// checkDecodesMatchCaptures asserts every DecodeState input is exactly the
// encoding the observer produced at the latest capture, and returns the
// number of decodes.
func checkDecodesMatchCaptures(t *testing.T, o *stateLog) int {
	t.Helper()
	var last []byte
	decodes := 0
	for i, e := range o.log {
		switch {
		case !e.decode:
			last = e.b
		case last == nil:
			t.Fatalf("log entry %d: decode of %x before any capture", i, e.b)
		case !bytes.Equal(e.b, last):
			t.Fatalf("log entry %d: decoded %x, the rollback target's capture was %x", i, e.b, last)
		default:
			decodes++
		}
	}
	return decodes
}

// TestStateObserverRestoredAtInSituRollback: with a forced replay at every
// epoch boundary, a state observer is handed back exactly the bytes it
// produced at that epoch's beginning, and ends the run with the count a
// run without replays reaches.
func TestStateObserverRestoredAtInSituRollback(t *testing.T) {
	mod := buildCounter(3, 40)
	plain := &stateLog{}
	rt, err := New(mod, Options{Seed: 5, EventCap: 32, Observers: []Observer{plain}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	o := &stateLog{}
	replayed := map[int64]bool{}
	rt, err = New(mod, Options{
		Seed: 5, EventCap: 32, MaxReplays: 64, DelayOnDivergence: true,
		Observers: []Observer{o},
		OnEpochEnd: func(rt *Runtime, info EpochEndInfo) Decision {
			if !replayed[info.Epoch] {
				replayed[info.Epoch] = true
				return Replay
			}
			return Proceed
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) < 3 {
		t.Fatalf("want several epoch boundaries, got %d", len(replayed))
	}
	if got := checkDecodesMatchCaptures(t, o); int64(got) != rep.Stats.Replays {
		t.Fatalf("%d decodes for %d rollbacks", got, rep.Stats.Replays)
	}
	if o.syncs != plain.syncs {
		t.Fatalf("observer counted %d syncs across rollbacks, %d without", o.syncs, plain.syncs)
	}
}

// TestStateObserverRestoredAtOfflineRollback: an observer attached with
// AttachObserver after PrepareReplayFlatAt is captured just before the
// first attempt, with the state it carries in. The first attempt decodes
// nothing, since nothing has run since; every divergence retry is handed
// back exactly that capture — its own state, not a program-start blank.
func TestStateObserverRestoredAtOfflineRollback(t *testing.T) {
	mod := buildCounter(3, 20)
	var epochs []*record.EpochLog
	rec := &stateLog{}
	rt, err := New(mod, Options{
		Seed:      3,
		Observers: []Observer{rec},
		TraceSink: func(ep *record.EpochLog) error { epochs = append(epochs, ep); return nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	const carried = 1000 // state the observer brings into the replay
	want := binary.AppendUvarint(nil, carried)
	replay := func(epochs []*record.EpochLog, maxReplays int) (*stateLog, *Runtime, error) {
		rrt, err := prepareReplay(mod, epochs, Options{MaxReplays: maxReplays, DelayOnDivergence: true})
		if err != nil {
			t.Fatal(err)
		}
		o := &stateLog{syncs: carried}
		rrt.AttachObserver(o)
		_, err = rrt.RunReplay()
		if len(o.log) == 0 || o.log[0].decode || !bytes.Equal(o.log[0].b, want) {
			t.Fatalf("first log entry %+v, want a capture of the carried state %x", o.log, want)
		}
		if got, att := checkDecodesMatchCaptures(t, o), rrt.StatsSnapshot().Replays; int64(got) != att-1 {
			t.Fatalf("%d decodes for %d attempts, want one per retry", got, att)
		}
		return o, rrt, err
	}

	o, _, err := replay(epochs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if o.syncs != carried+rec.syncs {
		t.Fatalf("observer ended at %d, want %d carried + %d replayed", o.syncs, carried, rec.syncs)
	}

	// A trace that stalls every attempt: each retry must restore the
	// carried state.
	swapLockTurns(t, epochs[0])
	const maxReplays = 3
	if _, rrt, err := replay(epochs, maxReplays); err == nil || rrt.StatsSnapshot().Replays != maxReplays {
		t.Fatalf("err = %v after %d attempts, want the search exhausted after %d", err, rrt.StatsSnapshot().Replays, maxReplays)
	}
}
