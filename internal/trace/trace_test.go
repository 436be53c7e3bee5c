package trace

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/hostrace"
	"repro/internal/record"
	"repro/internal/tir"
	"repro/internal/workloads"
)

// recordTrace runs spec under full recording with a streaming Writer and
// returns the decoded trace.
func recordTrace(t testing.TB, spec workloads.Spec, opts core.Options) *Trace {
	t.Helper()
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{
		App:        spec.Name,
		ModuleHash: tir.Fingerprint(mod),
		EventCap:   opts.EventCap,
		VarCap:     opts.VarCap,
		Seed:       opts.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	opts.TraceSink = w.Sink()
	rt, err := core.New(mod, opts)
	if err != nil {
		t.Fatal(err)
	}
	spec.SetupOS(rt.OS())
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("record %s: %v", spec.Name, err)
	}
	if err := w.Finish(&Summary{Exit: rep.Exit, Output: rep.Output}); err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return tr
}

func scaledSpec(t testing.TB, name string, scale float64) workloads.Spec {
	t.Helper()
	s, ok := workloads.ByName(name)
	if !ok {
		t.Fatalf("unknown app %s", name)
	}
	s.Iters = int(float64(s.Iters) * scale)
	if s.Iters < 3 {
		s.Iters = 3
	}
	return s
}

// denseApp is the workload the serialization tests record: dedup, the
// densest encoder case. Under the host race detector it substitutes
// streamcluster — dedup's library-work memcpys race between vthreads by
// design, which is the program's business, not the trace layer's.
func denseApp() string {
	if hostrace.Enabled {
		return "streamcluster"
	}
	return "dedup"
}

// TestEncodeDecodeByteStable: decode∘encode must be the identity on the
// decoded value, and encode must be byte-stable across two rounds.
func TestEncodeDecodeByteStable(t *testing.T) {
	spec := scaledSpec(t, denseApp(), 0.15)
	tr := recordTrace(t, spec, core.Options{Seed: 3, EventCap: 256})
	if len(tr.Epochs) == 0 {
		t.Fatal("no epochs recorded")
	}
	b1, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := Decode(b1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.Header, tr2.Header) {
		t.Fatalf("header round-trip: %+v != %+v", tr.Header, tr2.Header)
	}
	if len(tr2.Epochs) != len(tr.Epochs) {
		t.Fatalf("epoch count round-trip: %d != %d", len(tr2.Epochs), len(tr.Epochs))
	}
	for i := range tr.Epochs {
		if !reflect.DeepEqual(tr.Epochs[i], tr2.Epochs[i]) {
			t.Fatalf("epoch %d round-trip mismatch", i)
		}
	}
	if !reflect.DeepEqual(tr.Summary, tr2.Summary) {
		t.Fatalf("summary round-trip: %+v != %+v", tr.Summary, tr2.Summary)
	}
	b2, err := Encode(tr2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("encoding is not byte-stable: %d vs %d bytes", len(b1), len(b2))
	}
}

// TestCorruptionDetected: flipping any payload byte must fail the CRC.
func TestCorruptionDetected(t *testing.T) {
	tr := &Trace{
		Header: Header{App: "x", ModuleHash: 42, EventCap: 16, VarCap: 16},
		Epochs: []*record.EpochLog{{
			Epoch: 1,
			Threads: []record.ThreadLog{{TID: 0, Events: []record.Event{
				{Kind: record.KMutexLock, Var: 0x1000, Pos: 0},
				{Kind: record.KExit, Pos: -1},
			}}},
			Vars: []record.VarLog{{Addr: 0x1000, Order: []int32{0}}},
		}},
		Summary: &Summary{Exit: 7, Output: "1\n"},
	}
	b, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Decode(b); err != nil {
		t.Fatalf("pristine trace failed to decode: %v", err)
	}
	// Flip a byte inside the epoch frame payload (past magic + header).
	mut := append([]byte(nil), b...)
	mut[len(Magic)+20] ^= 0xff
	if _, err := Decode(mut); err == nil {
		t.Fatal("corrupted trace decoded without error")
	}
	// Truncation mid-frame is torn, not silently accepted. (Cut inside the
	// epoch frame: the final bytes are the index region, whose damage
	// legitimately salvages.)
	if _, err := Decode(b[:headerFrameEnd(t, b)+5]); err == nil {
		t.Fatal("torn trace decoded without error")
	}
}

// TestTruncationAtFrameBoundaryIsValid: a stream cut at a clean frame
// boundary (recorder killed before Finish) still loads its whole prefix.
func TestTruncationAtFrameBoundaryIsValid(t *testing.T) {
	spec := scaledSpec(t, "pfscan", 0.2)
	tr := recordTrace(t, spec, core.Options{Seed: 5, EventCap: 48})
	if len(tr.Epochs) < 2 {
		t.Fatalf("want a multi-epoch trace, got %d", len(tr.Epochs))
	}
	// Re-encode only the header + first epoch, no summary.
	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	if err := w.WriteEpoch(tr.Epochs[0]); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatalf("clean prefix failed to decode: %v", err)
	}
	if len(got.Epochs) != 1 || got.Summary != nil {
		t.Fatalf("prefix decoded to %d epochs, summary=%v", len(got.Epochs), got.Summary)
	}
}

// TestStoreRoundTripAndIndex covers Create+Commit/Load/List/ByModule and the
// decode cache.
func TestStoreRoundTripAndIndex(t *testing.T) {
	spec := scaledSpec(t, denseApp(), 0.15)
	tr := recordTrace(t, spec, core.Options{Seed: 3})
	st, err := OpenStore(filepath.Join(t.TempDir(), "traces"))
	if err != nil {
		t.Fatal(err)
	}
	commitTrace(t, st, "dedup-1", tr)
	got, err := st.Load("dedup-1")
	if err != nil {
		t.Fatal(err)
	}
	if got == tr {
		// The store must not alias the caller-owned object into the cache:
		// the caller may keep mutating it, while cached traces are immutable
		// images of the file.
		t.Fatal("Load after commit returned the caller's object")
	}
	if !reflect.DeepEqual(got.Header, tr.Header) || len(got.Epochs) != len(tr.Epochs) {
		t.Fatal("Load after commit decoded different content")
	}
	// The cache works at frame granularity: a second Load assembles a fresh
	// Trace from the same cached epoch decodes.
	if again, err := st.Load("dedup-1"); err != nil || again.Epochs[0] != got.Epochs[0] {
		t.Fatalf("second Load did not hit the frame cache: %v", err)
	}
	// A second store over the same directory decodes from disk.
	st2, err := OpenStore(st.Dir())
	if err != nil {
		t.Fatal(err)
	}
	got2, err := st2.Load("dedup-1")
	if err != nil {
		t.Fatal(err)
	}
	if got2 == tr {
		t.Fatal("fresh store returned the other store's object")
	}
	if !reflect.DeepEqual(got2.Header, tr.Header) || len(got2.Epochs) != len(tr.Epochs) {
		t.Fatal("disk round-trip mismatch")
	}
	if l3, err := st2.Load("dedup-1"); err != nil || l3.Epochs[0] != got2.Epochs[0] {
		t.Fatalf("second Load did not hit the frame cache: %v", err)
	}

	entries, err := st2.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name != "dedup-1" || !entries[0].Complete {
		t.Fatalf("List = %+v", entries)
	}
	if entries[0].Events != tr.EventCount() || entries[0].Epochs != len(tr.Epochs) {
		t.Fatalf("List stats = %+v, want %d events / %d epochs",
			entries[0], tr.EventCount(), len(tr.Epochs))
	}
	byMod, err := st2.ByModule(tr.Header.ModuleHash)
	if err != nil {
		t.Fatal(err)
	}
	if len(byMod) != 1 {
		t.Fatalf("ByModule(%#x) = %+v", tr.Header.ModuleHash, byMod)
	}
	if byOther, _ := st2.ByModule(tr.Header.ModuleHash + 1); len(byOther) != 0 {
		t.Fatalf("ByModule(wrong) = %+v", byOther)
	}
	if _, err := st2.Load("no/such"); err == nil {
		t.Fatal("invalid name accepted")
	}
}

// TestBatchReplayMatchesRecording replays a stored trace in parallel copies
// and requires every copy to match the recorded summary.
func TestBatchReplayMatchesRecording(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.2)
	opts := core.Options{Seed: 9}
	tr := recordTrace(t, spec, opts)
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	job := Job{
		Name: spec.Name, Module: mod, Handle: OpenTrace(tr), Opts: opts,
		Setup: func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil },
	}
	results, stats := ReplayBatch(Fanout(job, 6), 3)
	if stats.Jobs != 6 || stats.Matched != 6 || stats.Failed != 0 {
		t.Fatalf("stats = %+v (results %+v)", stats, results)
	}
	for _, r := range results {
		if r.Err != nil || !r.Matched {
			t.Fatalf("job %s: matched=%v err=%v", r.Name, r.Matched, r.Err)
		}
	}
	if stats.Events != 6*tr.EventCount() {
		t.Fatalf("events = %d, want %d", stats.Events, 6*tr.EventCount())
	}

	// A module the trace was not recorded from is refused up front.
	other, err := scaledSpec(t, "x264", 0.1).Build()
	if err != nil {
		t.Fatal(err)
	}
	bad := job
	bad.Module = other
	res, bstats := ReplayBatch([]Job{bad}, 1)
	if bstats.Failed != 1 || res[0].Err == nil {
		t.Fatalf("fingerprint mismatch not refused: %+v", res)
	}
}
