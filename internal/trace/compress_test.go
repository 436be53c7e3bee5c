package trace

// Seekable frame compression and the store lifecycle: a
// compressed re-encoding must be semantically identical to its raw
// original through every read path (decode, lazy handle slices, keyframe
// folds, whole-trace and segment replay), corrupted compressed frames must
// surface as errors — never panics or unbounded allocations — and Compact
// must preserve replay output and analyzer findings byte for byte while
// shrinking the file. GC enforces age and size retention without ever
// touching a pinned trace.

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
)

// reencodeCompressed re-encodes raw trace bytes with per-frame compression.
func reencodeCompressed(t *testing.T, raw []byte) []byte {
	t.Helper()
	tr, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	tr.Header.Compressed = true
	comp, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	return comp
}

// replayStoredTrace replays the named stored trace whole and
// segment-parallel; both must match the recorded oracle.
func replayStoredTrace(t *testing.T, st *Store, name string, specName string, opts core.Options) {
	t.Helper()
	spec := scaledSpec(t, specName, 0.5)
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	h, err := st.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	job := Job{
		Name: name, Module: mod, Handle: h,
		Opts:  core.Options{Seed: opts.Seed, EventCap: opts.EventCap, DelayOnDivergence: true},
		Setup: func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil },
	}
	results, stats := ReplayBatch([]Job{job}, 1)
	if !results[0].Matched || stats.Matched != 1 {
		t.Fatalf("whole-trace replay of %s did not match: %+v", name, results[0])
	}
	segResults, segStats, err := ReplaySegments(job, 2)
	if err != nil {
		t.Fatalf("segment replay of %s: %v (results %+v)", name, err, segResults)
	}
	if segStats.Failed != 0 || segStats.Matched != segStats.Jobs {
		t.Fatalf("segment replay of %s: %+v", name, segStats)
	}
}

// TestCompressedTraceEquivalent: the compressed re-encoding of a
// checkpointed recording is smaller, actually carries compressed frames,
// and is indistinguishable from the raw original through decode, handle
// slices, checkpoint folds, and both replay paths.
func TestCompressedTraceEquivalent(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.5)
	opts := core.Options{Seed: 9, EventCap: 24}
	raw := recordCheckpointedBytes(t, spec, opts, 2, 2)
	comp := reencodeCompressed(t, raw)
	if len(comp) >= len(raw) {
		t.Fatalf("compression did not shrink the trace: %d -> %d bytes", len(raw), len(comp))
	}
	var nComp int
	for _, s := range frameSpans(t, comp) {
		if s.kind&frameCompressed == 0 {
			continue
		}
		nComp++
		if k := s.kind &^ frameCompressed; k != frameEpoch && k != frameCkpt {
			t.Fatalf("frame kind %d carries the compression bit; only epoch and checkpoint bodies may", k)
		}
	}
	if nComp == 0 {
		t.Fatal("compressed encoding stored no compressed frames")
	}

	want, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(comp)
	if err != nil {
		t.Fatalf("compressed trace failed to decode: %v", err)
	}
	if !reflect.DeepEqual(got.Epochs, want.Epochs) {
		t.Fatal("compressed decode: epochs differ from the raw original")
	}
	if !reflect.DeepEqual(got.Summary, want.Summary) {
		t.Fatalf("compressed decode: summary %+v, want %+v", got.Summary, want.Summary)
	}
	wantStates, err := want.CheckpointStates()
	if err != nil {
		t.Fatal(err)
	}

	// The random-access path: single frames fetch and decompress through the
	// index, and keyframe folds land on the same memory images.
	st := storeWith(t, "cold", comp)
	h, err := st.Open("cold")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Indexed() || !h.Complete() || !h.Header().Compressed {
		t.Fatalf("compressed handle: indexed=%v complete=%v compressed=%v",
			h.Indexed(), h.Complete(), h.Header().Compressed)
	}
	lo, hi := h.EpochRange()
	eps, err := h.Epochs(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eps, want.Epochs) {
		t.Fatal("handle slice of compressed trace differs from the raw original")
	}
	for _, k := range []int{0, h.NumCheckpoints() - 1} {
		ck, err := h.CheckpointAt(k)
		if err != nil {
			t.Fatalf("CheckpointAt(%d): %v", k, err)
		}
		if ck.Epoch != wantStates[k].Epoch || !ck.Snap.Equal(wantStates[k].Snap) {
			t.Fatalf("compressed checkpoint fold %d differs from the raw original", k)
		}
	}
	h.Close()

	replayStoredTrace(t, st, "cold", "streamcluster", opts)
}

// TestCompressedFrameCorruption: a flipped byte in a compressed frame's
// stored body is caught by the CRC on both the scan and the indexed fetch
// path, and a stored body whose CRC was fixed up still fails strictly at
// the inflate layer — an implausible declared raw size is refused before
// any allocation. Errors, never panics.
func TestCompressedFrameCorruption(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.5)
	raw := recordCheckpointedBytes(t, spec, core.Options{Seed: 9, EventCap: 24}, 2, 2)
	comp := reencodeCompressed(t, raw)

	var ep frameSpan
	for _, s := range frameSpans(t, comp) {
		if s.kind&frameCompressed != 0 {
			ep = s
			break
		}
	}
	if ep.end == 0 {
		t.Fatal("no compressed frame in the corpus")
	}
	n, w := binary.Uvarint(comp[ep.start+1:])
	pstart, pend := ep.start+1+w, ep.end-4
	if int(n) != pend-pstart || pend-pstart < 8 {
		t.Fatalf("malformed corpus span: payload %d bytes", pend-pstart)
	}

	// Flipped stored byte: CRC mismatch on every read path.
	flipped := append([]byte(nil), comp...)
	flipped[pstart+(pend-pstart)/2] ^= 0xff
	if _, err := Decode(flipped); err == nil {
		t.Fatal("flipped compressed body decoded without error")
	}
	st := storeWith(t, "bad", flipped)
	h, err := st.Open("bad")
	if err == nil {
		// The footer is intact, so the damage surfaces on fetch — as an
		// error, not a panic.
		var fetchErr error
		lo, hi := h.EpochRange()
		if _, err := h.Epochs(lo, hi); err != nil {
			fetchErr = err
		}
		for k := 0; k < h.NumCheckpoints(); k++ {
			if _, err := h.CheckpointAt(k); err != nil {
				fetchErr = err
			}
		}
		h.Close()
		if fetchErr == nil {
			t.Fatal("indexed fetch served a flipped compressed frame")
		}
	}

	// CRC fixed up over a lying payload: the declared raw size is
	// implausible, and inflate refuses it before allocating. (The footer
	// keeps its own copy of every frame CRC, so the fix-up only gets as far
	// as inflate in a file whose index region is gone — cut the trailer.)
	lying := append([]byte(nil), comp[:len(comp)-indexTrailerLen]...)
	copy(lying[pstart:], []byte{0xff, 0xff, 0xff, 0xff, 0x0f}) // rawLen uvarint ≈ 4 GiB
	binary.LittleEndian.PutUint32(lying[pend:], crc32ieee(lying[pstart:pend]))
	_, err = Decode(lying)
	if err == nil {
		t.Fatal("implausible compressed raw size accepted")
	}
	if !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("implausible raw size surfaced as %v, want the size-bound error", err)
	}
}

// TestCompactEquivalence is the compaction acceptance criterion at the
// trace layer: the rewritten file is smaller and compressed, and replay —
// whole-trace and segment-parallel — still matches the recorded oracle
// byte for byte, over byte-identical epochs and checkpoint images.
func TestCompactEquivalence(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.5)
	opts := core.Options{Seed: 9, EventCap: 24}
	raw := recordCheckpointedBytes(t, spec, opts, 2, 2)
	st := storeWith(t, "sc", raw)
	want, err := Decode(raw)
	if err != nil {
		t.Fatal(err)
	}
	wantStates, err := want.CheckpointStates()
	if err != nil {
		t.Fatal(err)
	}

	cs, err := st.Compact("sc")
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if cs.OldBytes != int64(len(raw)) || cs.NewBytes >= cs.OldBytes {
		t.Fatalf("compact did not shrink: %+v (recorded %d bytes)", cs, len(raw))
	}
	if cs.Epochs != len(want.Epochs) || cs.Checkpoints != len(wantStates) {
		t.Fatalf("compact stats %+v, want %d epochs / %d checkpoints", cs, len(want.Epochs), len(wantStates))
	}

	h, err := st.Open("sc")
	if err != nil {
		t.Fatal(err)
	}
	if !h.Indexed() || !h.Complete() || !h.Header().Compressed {
		t.Fatalf("compacted handle: indexed=%v complete=%v compressed=%v",
			h.Indexed(), h.Complete(), h.Header().Compressed)
	}
	if !reflect.DeepEqual(h.Summary(), want.Summary) {
		t.Fatalf("compacted summary %+v, want %+v", h.Summary(), want.Summary)
	}
	lo, hi := h.EpochRange()
	eps, err := h.Epochs(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(eps, want.Epochs) {
		t.Fatal("compacted epochs differ from the original recording")
	}
	for k := 0; k < h.NumCheckpoints(); k++ {
		ck, err := h.CheckpointAt(k)
		if err != nil {
			t.Fatalf("CheckpointAt(%d): %v", k, err)
		}
		if ck.Epoch != wantStates[k].Epoch || !ck.Snap.Equal(wantStates[k].Snap) {
			t.Fatalf("compacted checkpoint %d differs from the original fold", k)
		}
	}
	h.Close()

	replayStoredTrace(t, st, "sc", "streamcluster", opts)

	// Rewrite, the streaming loop under Compact and the flight spill, on a
	// chain long enough to show the cost: each checkpoint frame is decoded
	// once per compaction (one running fold, not one fold per checkpoint),
	// the folded images equal the reference fold's, and re-encoding with
	// the source's own settings reproduces the source byte for byte.
	t.Run("rewrite-identity", func(t *testing.T) {
		const keyEvery = 4
		long := recordCheckpointedBytes(t, scaledSpec(t, "streamcluster", 1), opts, 1, keyEvery)
		want, err := Decode(long)
		if err != nil {
			t.Fatal(err)
		}
		wantStates, err := want.CheckpointStates()
		if err != nil {
			t.Fatal(err)
		}
		n := len(wantStates)
		if n < 12 {
			t.Fatalf("want >= 12 checkpoints, got %d", n)
		}

		st := storeWith(t, "long", long)
		st.SetCacheLimit(0) // uncached: every fold decode below is observable
		before := decodeProbe.ckpts.Load()
		if _, err := st.Compact("long"); err != nil {
			t.Fatalf("compact: %v", err)
		}
		if got := decodeProbe.ckpts.Load() - before; got != int64(n) {
			t.Fatalf("compacting %d checkpoints decoded %d checkpoint frames, want each once", n, got)
		}
		h, err := st.Open("long")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		// Compaction re-keyframes at the default interval, not the source's.
		if want := (n + DefaultKeyframeEvery - 1) / DefaultKeyframeEvery; h.Keyframes() != want {
			t.Fatalf("compacted %d checkpoints into %d keyframes, want %d (interval %d)",
				n, h.Keyframes(), want, DefaultKeyframeEvery)
		}
		for k := 0; k < n; k++ {
			before := decodeProbe.ckpts.Load()
			ck, err := h.CheckpointAt(k)
			if err != nil {
				t.Fatalf("CheckpointAt(%d): %v", k, err)
			}
			if decoded := decodeProbe.ckpts.Load() - before; decoded > DefaultKeyframeEvery {
				t.Fatalf("CheckpointAt(%d) on the compacted trace decoded %d checkpoint frames, keyframe interval is %d",
					k, decoded, DefaultKeyframeEvery)
			}
			if ck.Epoch != wantStates[k].Epoch || !ck.Snap.Equal(wantStates[k].Snap) {
				t.Fatalf("compacted checkpoint %d differs from the reference fold", k)
			}
		}

		src, err := OpenBytes(long)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, src.Header())
		if err != nil {
			t.Fatal(err)
		}
		w.SetKeyframeEvery(keyEvery)
		if err := Rewrite(w, src, -1); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(src.Summary()); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), long) {
			t.Fatalf("Rewrite with the source's settings is not the identity: %d bytes -> %d", len(long), buf.Len())
		}
	})
}

// TestCompactPreservesFindings: the analyzer verdict on a ground-truth
// corpus trace is byte-identical across compaction.
func TestCompactPreservesFindings(t *testing.T) {
	mod, tr := recordCorpusTrace(t, "leak-dropped")
	b, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	st := storeWith(t, "leak", b)

	analyze := func() []byte {
		h, err := st.Open("leak")
		if err != nil {
			t.Fatal(err)
		}
		defer h.Close()
		results, _ := AnalyzeBatch([]AnalyzeJob{{
			Job: Job{Name: "leak", Module: mod, Handle: h, Opts: core.Options{DelayOnDivergence: true}},
			NewAnalyzers: func() []analysis.Analyzer {
				return []analysis.Analyzer{analysis.NewRaceDetector(), analysis.NewLeakDetector()}
			},
		}}, 1)
		if !results[0].Matched {
			t.Fatalf("analysis did not match: %v", results[0].Err)
		}
		out, err := json.Marshal(results[0].Findings)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	ref := analyze()
	if !strings.Contains(string(ref), "memory-leak") {
		t.Fatalf("corpus trace produced no leak finding: %s", ref)
	}
	if _, err := st.Compact("leak"); err != nil {
		t.Fatalf("compact: %v", err)
	}
	if got := analyze(); !bytes.Equal(got, ref) {
		t.Fatalf("findings changed across compaction:\nafter:  %s\nbefore: %s", got, ref)
	}
}

// TestGCRetentionAndPins: age retention first, then the byte cap, oldest
// first, with pinned traces exempt from both — and a pin outliving any
// number of passes until explicitly removed.
func TestGCRetentionAndPins(t *testing.T) {
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	b := corpusTrace(t)
	size := int64(len(b))
	old := time.Now().Add(-3 * time.Hour)
	for i, name := range []string{"a-old-pinned", "b-old", "c-mid", "d-new"} {
		if err := os.WriteFile(st.Path(name), b, 0o644); err != nil {
			t.Fatal(err)
		}
		// Distinct, deterministic ages: a and b well past the window, c and
		// d inside it, each a minute apart so oldest-first is unambiguous.
		if err := os.Chtimes(st.Path(name), time.Time{}, old.Add(time.Duration(i)*90*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Pin("a-old-pinned"); err != nil {
		t.Fatal(err)
	}
	if ds, err := st.DiskStats(); err != nil || ds.Traces != 4 || ds.TotalBytes != 4*size {
		t.Fatalf("disk stats: %+v (%v)", ds, err)
	}

	// Age pass: a and b are past the hour window, but a is pinned.
	stats, err := st.GC(GCPolicy{MaxAge: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != 4 || stats.Pinned != 1 || stats.Removed != 1 || stats.ReclaimedBytes != size {
		t.Fatalf("age pass: %+v", stats)
	}
	if _, err := os.Stat(st.Path("b-old")); !os.IsNotExist(err) {
		t.Fatalf("b-old survived the age pass (err=%v)", err)
	}

	// Size pass capped at two traces' bytes: three remain, so the oldest
	// unpinned one (c) goes; pinned a stays although it is older still.
	stats, err = st.GC(GCPolicy{MaxBytes: 2 * size})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 1 || stats.RemainingBytes != 2*size {
		t.Fatalf("size pass: %+v", stats)
	}
	for name, want := range map[string]bool{"a-old-pinned": true, "c-mid": false, "d-new": true} {
		_, err := os.Stat(st.Path(name))
		if got := err == nil; got != want {
			t.Fatalf("after size pass, %s present=%v, want %v", name, got, want)
		}
	}

	// The Keep predicate shields like a pin, for one pass only.
	stats, err = st.GC(GCPolicy{MaxBytes: 1, Keep: func(name string) bool { return name == "d-new" }})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Held != 1 || stats.Removed != 0 || stats.Pinned != 1 {
		t.Fatalf("keep pass: %+v", stats)
	}

	// Unpinning finally exposes a to the policy.
	if err := st.Unpin("a-old-pinned"); err != nil {
		t.Fatal(err)
	}
	stats, err = st.GC(GCPolicy{MaxBytes: 1})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 2 || stats.RemainingBytes != 0 {
		t.Fatalf("final pass: %+v", stats)
	}

	// Remove of a reclaimed trace reports not-exist (the daemon's 404).
	if err := st.Remove("d-new"); err == nil || !os.IsNotExist(err) && !strings.Contains(err.Error(), "no trace") {
		t.Fatalf("remove of missing trace: %v", err)
	}
}
