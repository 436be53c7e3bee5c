package analysis

import (
	"bytes"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/interp"
)

func stk(fn string, pc int) func() []interp.StackEntry {
	return func() []interp.StackEntry { return []interp.StackEntry{{Func: fn, PC: pc}} }
}

// driveRaceState accumulates a nontrivial detector state: clocks for three
// threads, a mutex, a barrier, an exited thread, shadow cells with retained
// stacks, and one reported race.
func driveRaceState(d *RaceDetector) {
	d.OnThreadCreate(0, 1)
	d.OnThreadCreate(0, 2)
	d.OnSync(1, core.SyncAcquire, 0x9000)
	d.OnAccess(1, 0x4000, 8, true, false, stk("writer", 3))
	d.OnSync(1, core.SyncRelease, 0x9000)
	d.OnSync(2, core.SyncBarrierArrive, 0x9100)
	d.OnSync(2, core.SyncBarrierRelease, 0x9100)
	d.OnSync(2, core.SyncBarrierDepart, 0x9100)
	d.OnAccess(2, 0x4000, 8, true, false, stk("clobber", 7)) // unordered: races
	d.OnAccess(2, 0x4100, 4, false, false, stk("reader", 9))
	d.OnAccess(1, 0x4200, 8, false, true, nil) // atomic: sync clock only
	d.OnThreadExit(2)
	d.OnThreadJoin(0, 2)
}

// TestRaceFindingsIndependentOfInterleaving: two threads increment one
// variable with no synchronization, each a read then a write. Every
// interleaving a replay could deliver reports the same three racing pairs,
// the read/write pair whose read its own thread's write follows included.
func TestRaceFindingsIndependentOfInterleaving(t *testing.T) {
	type acc struct {
		tid   int32
		write bool
	}
	r1, w1, r2, w2 := acc{1, false}, acc{1, true}, acc{2, false}, acc{2, true}
	findings := func(order ...acc) []string {
		d := NewRaceDetector()
		d.OnThreadCreate(0, 1)
		d.OnThreadCreate(0, 2)
		for _, a := range order {
			fn := map[int32]string{1: "inc_a", 2: "inc_b"}[a.tid]
			pc := 5
			if a.write {
				pc = 7
			}
			d.OnAccess(a.tid, 0x4000, 8, a.write, false, stk(fn, pc))
		}
		var out []string
		for _, f := range d.Findings() {
			out = append(out, f.String())
		}
		slices.Sort(out)
		return out
	}
	want := findings(r1, r2, w1, w2)
	if len(want) != 3 {
		t.Fatalf("want read/write both ways and write/write, got %d findings:\n%s", len(want), want)
	}
	for _, order := range [][]acc{
		{r1, w1, r2, w2}, {r2, w2, r1, w1}, {r1, r2, w2, w1}, {r2, r1, w1, w2}, {r1, w1, r2, w2, r1, w1},
	} {
		if got := findings(order...); !slices.Equal(got, want) {
			t.Errorf("order %v: findings differ:\n%s\nwant:\n%s", order, got, want)
		}
	}
}

// TestRaceStateRoundTrip: encode -> fresh detector decode -> re-encode is
// byte-identical, and the decoded detector reports the same findings and
// keeps detecting with the restored clocks and shadow cells.
func TestRaceStateRoundTrip(t *testing.T) {
	d := NewRaceDetector()
	driveRaceState(d)
	b := d.AppendState(nil)
	if len(b) == 0 {
		t.Fatal("empty encoding for nonempty state")
	}

	d2 := NewRaceDetector()
	rest, err := d2.DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !bytes.Equal(b, d2.AppendState(nil)) {
		t.Fatal("re-encoding the decoded state differs")
	}
	if !reflect.DeepEqual(d.Findings(), d2.Findings()) {
		t.Fatalf("findings differ after round-trip:\n%+v\n%+v", d.Findings(), d2.Findings())
	}
	if len(d2.Findings()) == 0 {
		t.Fatal("driven state produced no race finding")
	}

	// The restored state must keep working: the same next access produces
	// the same verdict on both detectors (a fresh racing pair on 0x4100).
	d.OnAccess(1, 0x4100, 4, true, false, stk("late_writer", 11))
	d2.OnAccess(1, 0x4100, 4, true, false, stk("late_writer", 11))
	if !reflect.DeepEqual(d.Findings(), d2.Findings()) {
		t.Fatal("decoded detector diverges from original on the next access")
	}
	if len(d.Findings()) != len(d2.Findings()) || len(d.Findings()) < 2 {
		t.Fatalf("late access not detected identically (%d vs %d findings)",
			len(d.Findings()), len(d2.Findings()))
	}
}

// TestRaceStateRoundTripEmpty: a fresh detector's state survives the trip.
func TestRaceStateRoundTripEmpty(t *testing.T) {
	d := NewRaceDetector()
	b := d.AppendState(nil)
	d2 := NewRaceDetector()
	if _, err := d2.DecodeState(b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, d2.AppendState(nil)) {
		t.Fatal("empty-state re-encoding differs")
	}
}

// TestRaceStateDecodeCorrupt: truncated and implausible inputs fail cleanly
// instead of over-allocating or panicking.
func TestRaceStateDecodeCorrupt(t *testing.T) {
	d := NewRaceDetector()
	driveRaceState(d)
	b := d.AppendState(nil)
	for _, tc := range [][]byte{
		b[:1], b[:len(b)/2], b[:len(b)-1],
		{0xff, 0xff, 0xff, 0xff, 0x7f}, // implausible count
	} {
		if _, err := NewRaceDetector().DecodeState(tc); err == nil {
			t.Fatalf("corrupt input %x decoded without error", tc[:min(8, len(tc))])
		}
	}
}

// TestLeakStateRoundTrip mirrors the race round-trip for the site table and
// found leaks.
func TestLeakStateRoundTrip(t *testing.T) {
	d := NewLeakDetector()
	d.OnAlloc(1, 0x5000, 64, []interp.StackEntry{{Func: "mk", PC: 2}})
	d.OnAlloc(2, 0x5100, 32, []interp.StackEntry{{Func: "mk", PC: 2}, {Func: "main", PC: 8}})
	d.OnAlloc(1, 0x5200, 16, nil)
	d.OnFree(1, 0x5200, nil)
	d.mu.Lock()
	d.leaks[0x5100] = Leak{Addr: 0x5100, Size: 32, TID: 2, Epoch: 3,
		Stack: []interp.StackEntry{{Func: "mk", PC: 2}}}
	d.mu.Unlock()

	b := d.AppendState(nil)
	d2 := NewLeakDetector()
	rest, err := d2.DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !bytes.Equal(b, d2.AppendState(nil)) {
		t.Fatal("re-encoding the decoded state differs")
	}
	if !reflect.DeepEqual(d.Leaks(), d2.Leaks()) {
		t.Fatalf("leaks differ after round-trip:\n%+v\n%+v", d.Leaks(), d2.Leaks())
	}
	if !reflect.DeepEqual(d.sites, d2.sites) {
		t.Fatalf("site tables differ after round-trip:\n%+v\n%+v", d.sites, d2.sites)
	}
}

// TestProfileStateRoundTrip: the counters survive, byte-stable.
func TestProfileStateRoundTrip(t *testing.T) {
	p := NewProfile()
	p.OnSync(1, core.SyncAcquire, 0x9000)
	p.OnThreadCreate(0, 1)
	p.OnAlloc(1, 0x5000, 8, nil)
	p.OnSyscall(1, 64, 0)
	p.OnAccess(1, 0x4000, 8, true, false, nil)
	p.OnAccess(1, 0x4000, 8, false, false, nil)

	b := p.AppendState(nil)
	p2 := NewProfile()
	rest, err := p2.DecodeState(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes", len(rest))
	}
	if !bytes.Equal(b, p2.AppendState(nil)) {
		t.Fatal("re-encoding differs")
	}
	if !reflect.DeepEqual(p.Findings(), p2.Findings()) {
		t.Fatalf("profile findings differ:\n%+v\n%+v", p.Findings(), p2.Findings())
	}
}

// TestStateChainConcatenation: multiple analyzers' states append into one
// buffer and decode back in order, each consuming exactly its own bytes —
// the wire shape of a propagated state chain.
func TestStateChainConcatenation(t *testing.T) {
	r := NewRaceDetector()
	driveRaceState(r)
	l := NewLeakDetector()
	l.OnAlloc(1, 0x5000, 64, []interp.StackEntry{{Func: "mk", PC: 2}})
	p := NewProfile()
	p.OnSync(1, core.SyncAcquire, 0x9000)

	var buf []byte
	buf = r.AppendState(buf)
	buf = l.AppendState(buf)
	buf = p.AppendState(buf)

	r2, l2, p2 := NewRaceDetector(), NewLeakDetector(), NewProfile()
	rest, err := r2.DecodeState(buf)
	if err != nil {
		t.Fatal(err)
	}
	if rest, err = l2.DecodeState(rest); err != nil {
		t.Fatal(err)
	}
	if rest, err = p2.DecodeState(rest); err != nil {
		t.Fatal(err)
	}
	if len(rest) != 0 {
		t.Fatalf("%d trailing bytes after the chain", len(rest))
	}
	if !reflect.DeepEqual(r.Findings(), r2.Findings()) {
		t.Fatal("race findings differ through the chain")
	}
	if !reflect.DeepEqual(l.sites, l2.sites) {
		t.Fatal("leak sites differ through the chain")
	}
	if p2.Syncs.Load() != 1 {
		t.Fatal("profile counters differ through the chain")
	}
}

// TestTapeReplayAndReset: the tape re-delivers its stream faithfully (a
// detector fed via tape matches one fed directly) and OnReset drops the
// abandoned attempt.
func TestTapeReplayAndReset(t *testing.T) {
	tape := NewTape()
	// An abandoned divergent attempt, then the matched one.
	tape.OnAccess(7, 0xdead, 8, true, false, stk("garbage", 1))
	tape.OnReset()

	// Drive the same callback sequence into the tape and a direct detector.
	direct := NewRaceDetector()
	tape.OnThreadCreate(0, 1)
	direct.OnThreadCreate(0, 1)
	tape.OnThreadCreate(0, 2)
	direct.OnThreadCreate(0, 2)
	tape.OnAccess(1, 0x4000, 8, true, false, stk("writer", 3))
	direct.OnAccess(1, 0x4000, 8, true, false, stk("writer", 3))
	tape.OnSyscall(1, 64, 0)
	tape.OnAccess(2, 0x4000, 8, true, false, stk("clobber", 7))
	direct.OnAccess(2, 0x4000, 8, true, false, stk("clobber", 7))

	replayed := NewRaceDetector()
	prof := NewProfile()
	tape.Replay([]Analyzer{replayed, prof})

	if !reflect.DeepEqual(direct.Findings(), replayed.Findings()) {
		t.Fatalf("tape-fed findings differ from direct:\n%+v\n%+v",
			direct.Findings(), replayed.Findings())
	}
	if len(replayed.Findings()) == 0 {
		t.Fatal("tape replay detected no race")
	}
	if prof.Accesses.Load() != 2 || prof.Creates.Load() != 2 || prof.Syscalls.Load() != 1 {
		t.Fatalf("profile counted %d/%d/%d, want 2/2/1 (reset attempt must not count)",
			prof.Accesses.Load(), prof.Creates.Load(), prof.Syscalls.Load())
	}
}
