package trace

// Tests for the random-access trace surface: lazy slice decoding through
// Handle, the checkpoint keyframe fold bound, the segment-granular store
// cache cost, and the byte-identity of handle-based segment replay and
// analysis against the whole-trace path — the acceptance criteria of the
// indexed-format refactor, each asserted with probes (decode counters,
// Store.Stats), not just outcomes.

import (
	"bytes"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/hostrace"
	"repro/internal/tir"
	"repro/internal/workloads"
)

// recordCheckpointedBytes records spec with checkpoint frames every
// interval epochs and keyframes every keyEvery checkpoints, returning the
// encoded trace.
func recordCheckpointedBytes(t testing.TB, spec workloads.Spec, opts core.Options, interval, keyEvery int) []byte {
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
		AppIters:   spec.Iters,
	})
	if err != nil {
		t.Fatal(err)
	}
	if keyEvery > 0 {
		w.SetKeyframeEvery(keyEvery)
	}
	opts.TraceSink = w.Sink()
	opts.CheckpointEvery = interval
	opts.CheckpointSink = w.CheckpointSink()
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
	return buf.Bytes()
}

// storeWith writes encoded trace bytes under name into a fresh store.
func storeWith(t testing.TB, name string, b []byte) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(st.Path(name), b, 0o644); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestHandleLazySliceDecode: opening an indexed trace decodes nothing, and
// Epochs(lo,hi) decodes exactly the requested frames — with the store
// cache costing the decoded bytes of that slice, not the file.
func TestHandleLazySliceDecode(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.5)
	b := recordCheckpointedBytes(t, spec, core.Options{Seed: 9, EventCap: 24}, 2, 0)
	st := storeWith(t, "lazy", b)

	before := decodeProbe.epochs.Load()
	h, err := st.Open("lazy")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	if !h.Indexed() {
		t.Fatal("finished trace did not open through the footer")
	}
	if got := decodeProbe.epochs.Load(); got != before {
		t.Fatalf("Open decoded %d epoch frames, want 0", got-before)
	}
	lo, hi := h.EpochRange()
	if hi-lo+1 < 6 {
		t.Fatalf("want >= 6 epochs, got %d", hi-lo+1)
	}

	slice, err := h.Epochs(lo+1, lo+2)
	if err != nil {
		t.Fatal(err)
	}
	if got := decodeProbe.epochs.Load() - before; got != 2 {
		t.Fatalf("Epochs(%d,%d) decoded %d frames, want 2", lo+1, lo+2, got)
	}
	wantCost := epochCost(slice[0]) + epochCost(slice[1])
	if stats := st.Stats(); stats.CachedBytes != wantCost || stats.CachedFrames != 2 {
		t.Fatalf("cache holds %d bytes / %d frames after a 2-epoch slice, want %d / 2",
			stats.CachedBytes, stats.CachedFrames, wantCost)
	}

	// A re-fetch of the slice is pure cache: no further decodes.
	mid := decodeProbe.epochs.Load()
	if _, err := h.Epochs(lo+1, lo+2); err != nil {
		t.Fatal(err)
	}
	if got := decodeProbe.epochs.Load(); got != mid {
		t.Fatalf("cached slice re-decoded %d frames", got-mid)
	}

	// Ranges the trace does not cover are refused.
	if _, err := h.Epochs(hi+1, hi+2); err == nil {
		t.Fatal("out-of-range epoch slice accepted")
	}
}

// TestCheckpointKeyframeBound: reaching checkpoint k decodes at most
// keyEvery checkpoint frames (the fold restarts at the nearest keyframe),
// and the folded state equals the full-chain fold.
func TestCheckpointKeyframeBound(t *testing.T) {
	const keyEvery = 2
	spec := scaledSpec(t, "streamcluster", 0.5)
	b := recordCheckpointedBytes(t, spec, core.Options{Seed: 9, EventCap: 24}, 2, keyEvery)

	h, err := OpenBytes(b) // uncached: every fold decode is observable
	if err != nil {
		t.Fatal(err)
	}
	n := h.NumCheckpoints()
	if n < 3 {
		t.Fatalf("want >= 3 checkpoints, got %d", n)
	}
	if want := (n + keyEvery - 1) / keyEvery; h.Keyframes() != want {
		t.Fatalf("%d keyframes for %d checkpoints at interval %d, want %d",
			h.Keyframes(), n, keyEvery, want)
	}

	// Reference: the whole-trace fold.
	tr, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	states, err := tr.CheckpointStates()
	if err != nil {
		t.Fatal(err)
	}

	for _, k := range []int{n - 1, n / 2} {
		before := decodeProbe.ckpts.Load()
		got, err := h.CheckpointAt(k)
		if err != nil {
			t.Fatal(err)
		}
		decoded := decodeProbe.ckpts.Load() - before
		if decoded > keyEvery {
			t.Fatalf("CheckpointAt(%d) decoded %d checkpoint frames, keyframe interval is %d",
				k, decoded, keyEvery)
		}
		if k+1 > keyEvery && decoded >= int64(k+1) {
			t.Fatalf("CheckpointAt(%d) folded the whole chain (%d decodes)", k, decoded)
		}
		want := states[k]
		if got.Epoch != want.Epoch || got.OutputLen != want.OutputLen || got.NextTID != want.NextTID {
			t.Fatalf("checkpoint %d metadata mismatch: %+v vs %+v", k, got, want)
		}
		if !got.Snap.Equal(want.Snap) {
			t.Fatalf("checkpoint %d: keyframe fold differs from full-chain fold (%d bytes differ)",
				k, got.Snap.DiffCount(want.Snap))
		}
	}
}

// TestSegmentFanoutCacheBoundedAndByteIdentical is the refactor's
// acceptance test: segment-parallel replay through a store handle produces
// output byte-identical to the whole-trace path while the store's cache
// cost stays inside a budget sized well below the decoded recording.
func TestSegmentFanoutCacheBoundedAndByteIdentical(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.5)
	opts := core.Options{Seed: 9, EventCap: 24}
	b := recordCheckpointedBytes(t, spec, opts, 2, 2)
	st := storeWith(t, "fan", b)

	// The whole-trace reference replay, from an in-memory decode.
	tr, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Checkpoints) < 2 {
		t.Fatalf("want >= 2 checkpoints, got %d", len(tr.Checkpoints))
	}
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ropts := core.Options{Seed: opts.Seed, EventCap: opts.EventCap, DelayOnDivergence: true}
	setup := func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil }
	whole, wstats := ReplayBatch([]Job{{
		Name: "whole", Module: mod, Handle: OpenTrace(tr), Opts: ropts, Setup: setup,
	}}, 1)
	if wstats.Failed != 0 {
		t.Fatalf("whole-trace replay failed: %v", whole[0].Err)
	}

	// Budget: half the decoded recording — the fan-out must live within it.
	var fullCost int64
	for _, ep := range tr.Epochs {
		fullCost += epochCost(ep)
	}
	for _, ck := range tr.Checkpoints {
		fullCost += ckptCost(ck)
	}
	limit := fullCost / 2
	st.SetCacheLimit(limit)

	h, err := st.Open("fan")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	results, stats, err := ReplaySegments(Job{
		Name: "fan", Module: mod, Handle: h, Opts: ropts, Setup: setup,
	}, 4)
	if err != nil {
		t.Fatalf("segment replay: %v (results %+v)", err, results)
	}
	if stats.Matched != stats.Jobs || stats.Jobs != len(tr.Checkpoints)+1 {
		t.Fatalf("stats = %+v", stats)
	}

	// Byte identity: the stitched segment outputs equal the whole-trace
	// replay's output equal the recording's.
	var stitched string
	for _, r := range results {
		stitched += r.Report.Output
	}
	if stitched != whole[0].Report.Output || stitched != tr.Summary.Output {
		t.Fatalf("segment output (%d bytes) != whole-trace output (%d bytes)",
			len(stitched), len(whole[0].Report.Output))
	}
	if whole[0].Report.Exit != results[len(results)-1].Report.Exit {
		t.Fatal("segment exit differs from whole-trace exit")
	}

	// Cache cost: bounded by the budget (which is itself far below the
	// decoded recording) the whole way through — Stats reads after the run
	// and the invariant that inserts evict over-budget entries make the
	// peak observable.
	cstats := st.Stats()
	if cstats.CachedBytes > limit {
		t.Fatalf("cache cost %d exceeds the %d budget (full decode costs %d)",
			cstats.CachedBytes, limit, fullCost)
	}
	if cstats.Misses == 0 {
		t.Fatal("segment fan-out never touched the store cache")
	}
}

// canonicalFindings reduces a finding list to the properties that are
// invariant across replays of the same trace: analyzer, kind, address,
// size, and the set of implicated functions. The two paths under test
// replay independently, and a divergence retry can observe a racing pair
// in either orientation — which swaps site roles and even the exact PCs
// (whose increment wrote last) — so site-exact comparison would be flaky
// without being evidence about the handle path.
func canonicalFindings(fs []analysis.Finding) []string {
	out := make([]string, 0, len(fs))
	for _, f := range fs {
		funcs := make([]string, len(f.Sites))
		for i, s := range f.Sites {
			funcs[i] = s.Func()
		}
		sort.Strings(funcs)
		out = append(out, fmt.Sprintf("%s|%s|%#x|%d|%s",
			f.Analyzer, f.Kind, f.Addr, f.Size, strings.Join(funcs, ",")))
	}
	sort.Strings(out)
	return out
}

// TestAnalyzeFindingsIdenticalViaHandle: batch analysis through a store
// handle yields the same findings as the whole-trace in-memory path —
// compared on replay-invariant properties (see canonicalFindings).
//
//ir:racy replays the deliberately racy race-counter corpus program, whose guest race the host race detector reports
func TestAnalyzeFindingsIdenticalViaHandle(t *testing.T) {
	if hostrace.Enabled {
		t.Skip("race-counter races on purpose; skipped under the host race detector")
	}
	mod, tr := recordCorpusTrace(t, "race-counter")
	b, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	st := storeWith(t, "rc", b)

	factory := func() []analysis.Analyzer {
		return []analysis.Analyzer{analysis.NewRaceDetector(), analysis.NewLeakDetector()}
	}
	viaMem, mstats := AnalyzeBatch([]AnalyzeJob{{
		Job:          Job{Name: "rc", Module: mod, Handle: OpenTrace(tr), Opts: core.Options{DelayOnDivergence: true}},
		NewAnalyzers: factory,
	}}, 1)
	if mstats.Failed != 0 {
		t.Fatalf("in-memory analysis failed: %v", viaMem[0].Err)
	}

	h, err := st.Open("rc")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	viaStore, sstats := AnalyzeBatch([]AnalyzeJob{{
		Job:          Job{Name: "rc", Module: mod, Handle: h, Opts: core.Options{DelayOnDivergence: true}},
		NewAnalyzers: factory,
	}}, 1)
	if sstats.Failed != 0 {
		t.Fatalf("store-handle analysis failed: %v", viaStore[0].Err)
	}
	if len(viaStore[0].Findings) == 0 {
		t.Fatal("race-counter produced no findings through the handle")
	}
	mem, store := canonicalFindings(viaMem[0].Findings), canonicalFindings(viaStore[0].Findings)
	if !reflect.DeepEqual(mem, store) {
		t.Fatalf("findings differ between paths:\nmem:   %+v\nstore: %+v",
			viaMem[0].Findings, viaStore[0].Findings)
	}
}

// TestHandleFooterScanEquivalence: the one reader has two index sources —
// the footer and the sequential walk — and they must describe the same
// trace. For every shape of file the repo writes, the handle OpenBytes
// returns (footer-served when the file has one) and a forced scan of the
// same bytes (OpenPrefix never consults the footer) agree on the header,
// every frame location, the inventory counters, and the full decode.
func TestHandleFooterScanEquivalence(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.5)
	plain := recordCheckpointedBytes(t, spec, core.Options{Seed: 9, EventCap: 24}, 2, 2)

	compacted := func() []byte {
		st := storeWith(t, "c", plain)
		if _, err := st.Compact("c"); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(st.Path("c"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// What a flight-recorder spill writes: the frames from an interior
	// checkpoint on, closed by a partial summary.
	suffix := func() []byte {
		h, err := OpenBytes(plain)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		w, err := NewWriter(&buf, h.Header())
		if err != nil {
			t.Fatal(err)
		}
		if err := Rewrite(w, h, h.NumCheckpoints()/2); err != nil {
			t.Fatal(err)
		}
		if err := w.Finish(&Summary{Partial: true}); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, tc := range []struct {
		name    string
		b       []byte
		indexed bool
	}{
		{"plain", plain, true},
		{"compressed", reencodeCompressed(t, plain), true},
		{"compacted", compacted(), true},
		{"flight-spill-suffix", suffix(), true},
		{"incomplete", plain[:firstSpan(t, frameSpans(t, plain), frameSum).start], false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			foot, err := OpenBytes(tc.b)
			if err != nil {
				t.Fatal(err)
			}
			scan, err := OpenPrefix(bytes.NewReader(tc.b), int64(len(tc.b)))
			if err != nil {
				t.Fatal(err)
			}
			if foot.Indexed() != tc.indexed || scan.Indexed() {
				t.Fatalf("index sources: OpenBytes footer=%v (want %v), forced scan footer=%v",
					foot.Indexed(), tc.indexed, scan.Indexed())
			}
			if foot.NumEpochs() == 0 || foot.NumCheckpoints() == 0 {
				t.Fatalf("degenerate fixture: %d epochs, %d checkpoints", foot.NumEpochs(), foot.NumCheckpoints())
			}
			if !reflect.DeepEqual(foot.Header(), scan.Header()) {
				t.Fatalf("footer header %+v != scan header %+v", foot.Header(), scan.Header())
			}
			// Frame locations agree exactly.
			for i := range scan.idx.epochs {
				if i >= len(foot.idx.epochs) || foot.idx.epochs[i] != scan.idx.epochs[i] {
					t.Fatalf("epoch ref %d: scan has %+v, footer disagrees", i, scan.idx.epochs[i])
				}
			}
			for i := range scan.idx.ckpts {
				if i >= len(foot.idx.ckpts) || foot.idx.ckpts[i] != scan.idx.ckpts[i] {
					t.Fatalf("ckpt ref %d: scan has %+v, footer disagrees", i, scan.idx.ckpts[i])
				}
			}
			if foot.idx.sum != scan.idx.sum {
				t.Fatalf("summary ref: footer %+v != scan %+v", foot.idx.sum, scan.idx.sum)
			}
			type counters struct {
				epochs, ckpts, keyframes int
				events                   int64
				complete, leading        bool
			}
			count := func(h *Handle) counters {
				return counters{h.NumEpochs(), h.NumCheckpoints(), h.Keyframes(),
					h.EventCount(), h.Complete(), h.LeadingCheckpoint()}
			}
			if count(foot) != count(scan) || count(foot).complete != tc.indexed {
				t.Fatalf("inventory diverges: footer %+v, scan %+v", count(foot), count(scan))
			}
			ft, err := foot.Trace()
			if err != nil {
				t.Fatal(err)
			}
			stt, err := scan.Trace()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ft, stt) {
				t.Fatal("full decode differs between the footer-served and the scan-served handle")
			}
		})
	}
}
