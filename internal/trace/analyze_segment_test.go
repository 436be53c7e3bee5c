package trace

import (
	"bytes"
	"reflect"
	"sort"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/hostrace"
	"repro/internal/tir"
	"repro/internal/workloads"
)

// recordCheckpointedCorpus records one ground-truth corpus program with an
// aggressively small epoch cap and a checkpoint at every boundary, so even
// the few-event corpus programs split into multiple analysis segments.
func recordCheckpointedCorpus(t testing.TB, c workloads.AnalysisCase) (*tir.Module, *Trace, core.Options) {
	t.Helper()
	mod := c.Build()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Header{App: c.Name, ModuleHash: tir.Fingerprint(mod), EventCap: 4, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	rt, err := core.New(mod, core.Options{
		Seed: 9, EventCap: 4,
		TraceSink:       w.Sink(),
		CheckpointEvery: 1,
		CheckpointSink:  w.CheckpointSink(),
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		t.Fatalf("record %s: %v", c.Name, err)
	}
	if err := w.Finish(&Summary{Exit: rep.Exit, Output: rep.Output}); err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return mod, tr, core.Options{Seed: 9, EventCap: 4, DelayOnDivergence: true}
}

func corpusFactory() []analysis.Analyzer {
	return []analysis.Analyzer{
		analysis.NewRaceDetector(), analysis.NewLeakDetector(), analysis.NewProfile(),
	}
}

// uniqueCanonical dedupes the replay-invariant canonical form: two
// independent replays of a *racy* program may observe a racing pair in both
// orientations or just one, so only the set — not the multiplicity — is
// evidence (same stance as canonicalFindings).
func uniqueCanonical(fs []analysis.Finding) []string {
	seen := map[string]bool{}
	for _, s := range canonicalFindings(fs) {
		seen[s] = true
	}
	out := make([]string, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// checkGroundTruth holds findings to the corpus entry's known defects.
func checkGroundTruth(t *testing.T, c workloads.AnalysisCase, fs []analysis.Finding) {
	t.Helper()
	for _, pair := range c.RacePairs {
		found := false
		for _, f := range fs {
			if f.Kind != "data-race" || len(f.Sites) != 2 {
				continue
			}
			a, b := f.Sites[0].Func(), f.Sites[1].Func()
			if (a == pair[0] && b == pair[1]) || (a == pair[1] && b == pair[0]) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: racing pair %v not blamed in %v", c.Name, pair, fs)
		}
	}
	leaks := 0
	for _, f := range fs {
		if f.Kind != "memory-leak" {
			continue
		}
		leaks++
		ok := false
		for _, site := range c.LeakSites {
			if f.Sites[0].Func() == site {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s: leak blamed on %s, want one of %v", c.Name, f.Sites[0].Func(), c.LeakSites)
		}
	}
	if leaks != c.Leaks {
		t.Errorf("%s: %d leak findings, want %d", c.Name, leaks, c.Leaks)
	}
	if len(c.RacePairs) == 0 {
		for _, f := range fs {
			if f.Kind == "data-race" {
				t.Errorf("%s: race-free program blamed: %v", c.Name, f)
			}
		}
	}
}

// TestAnalyzeSegmentsCorpusIdentity is the tentpole acceptance test: every
// ground-truth corpus program, recorded with a checkpoint at every epoch
// boundary, produces the same findings through AnalyzeSegments as through
// the whole-trace AnalyzeBatch path — byte-identical for the deterministic
// programs (race-free and leak corpus), canonical-set-identical for the
// racy ones, whose detector arrival order is scheduling-dependent on both
// paths. Ground truth is checked on both paths as well.
//
//ir:racy analyzes traces recorded from the racy corpus
func TestAnalyzeSegmentsCorpusIdentity(t *testing.T) {
	if hostrace.Enabled {
		t.Skip("corpus includes deliberately racy programs")
	}
	for _, c := range workloads.AnalysisCorpus() {
		t.Run(c.Name, func(t *testing.T) {
			mod, tr, opts := recordCheckpointedCorpus(t, c)
			if len(tr.Checkpoints) < 1 {
				t.Fatalf("recording produced no checkpoints (%d epochs)", len(tr.Epochs))
			}
			job := AnalyzeJob{
				Job:          Job{Name: c.Name, Module: mod, Handle: OpenTrace(tr), Opts: opts},
				NewAnalyzers: corpusFactory,
			}
			whole, wstats := AnalyzeBatch([]AnalyzeJob{job}, 1)
			if wstats.Failed != 0 {
				t.Fatalf("whole-trace analysis failed: %v", whole[0].Err)
			}
			seg, sstats, err := AnalyzeSegments(job, 4)
			if err != nil {
				t.Fatalf("segment analysis: %v", err)
			}
			if !seg.Matched || sstats.Jobs != len(tr.Checkpoints)+1 || sstats.Matched != sstats.Jobs {
				t.Fatalf("segment stats = %+v (matched %t)", sstats, seg.Matched)
			}
			if len(seg.Segments) != sstats.Jobs {
				t.Fatalf("%d attribution rows for %d segments", len(seg.Segments), sstats.Jobs)
			}
			next := int64(1)
			for _, at := range seg.Segments {
				if at.FirstEpoch != next {
					t.Fatalf("segment %d begins at epoch %d, want %d", at.Seg, at.FirstEpoch, next)
				}
				next = at.LastEpoch + 1
			}
			if len(c.RacePairs) == 0 {
				// Deterministic program: the callback stream is identical on
				// both paths, so the reports must match to the byte.
				if !reflect.DeepEqual(whole[0].Findings, seg.Findings) {
					t.Fatalf("findings differ between paths:\nwhole:   %+v\nsegment: %+v",
						whole[0].Findings, seg.Findings)
				}
			} else if w, s := uniqueCanonical(whole[0].Findings), uniqueCanonical(seg.Findings); !reflect.DeepEqual(w, s) {
				t.Fatalf("canonical findings differ between paths:\nwhole:   %v\nsegment: %v", w, s)
			}
			checkGroundTruth(t, c, whole[0].Findings)
			checkGroundTruth(t, c, seg.Findings)
		})
	}
}

// TestAnalyzeSegmentsRollbackRetry runs segmented analysis over a real
// workload recording whose replay exercises the divergence-retry path
// (DelayOnDivergence), so abandoned attempts must vanish from the tapes:
// findings still come out byte-identical to the whole-trace path, and the
// attribution rows account for every segment.
func TestAnalyzeSegmentsRollbackRetry(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.5)
	opts := core.Options{Seed: 9, EventCap: 24}
	tr := recordCheckpointed(t, spec, opts, 2)
	if len(tr.Checkpoints) < 2 {
		t.Fatalf("want >= 2 checkpoints, got %d", len(tr.Checkpoints))
	}
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	job := AnalyzeJob{
		Job: Job{
			Name: spec.Name, Module: mod, Handle: OpenTrace(tr),
			Opts:  core.Options{Seed: opts.Seed, EventCap: opts.EventCap, DelayOnDivergence: true},
			Setup: func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil },
		},
		NewAnalyzers: corpusFactory,
	}
	whole, wstats := AnalyzeBatch([]AnalyzeJob{job}, 1)
	if wstats.Failed != 0 {
		t.Fatalf("whole-trace analysis failed: %v", whole[0].Err)
	}
	seg, sstats, err := AnalyzeSegments(job, 4)
	if err != nil {
		t.Fatalf("segment analysis: %v", err)
	}
	if sstats.Matched != sstats.Jobs || sstats.Events != tr.EventCount() {
		t.Fatalf("stats = %+v (recorded %d events)", sstats, tr.EventCount())
	}
	if !reflect.DeepEqual(whole[0].Findings, seg.Findings) {
		t.Fatalf("findings differ between paths:\nwhole:   %+v\nsegment: %+v",
			whole[0].Findings, seg.Findings)
	}
	var walled int
	for _, at := range seg.Segments {
		if at.Wall > 0 {
			walled++
		}
	}
	if walled == 0 {
		t.Fatal("no attribution row carries wall time")
	}
}

// TestAnalyzeStreamingCacheBounded is the streaming refactor's acceptance
// test: a whole-trace analyze job through a store handle must live within a
// cache budget sized well below the decoded recording — the windowed epoch
// stream releases frames instead of pinning the trace — while producing the
// same findings as the in-memory path. Whole replay decodes through the
// same windows and is held to the same budget.
func TestAnalyzeStreamingCacheBounded(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.5)
	opts := core.Options{Seed: 9, EventCap: 24}
	b := recordCheckpointedBytes(t, spec, opts, 2, 2)
	st := storeWith(t, "stream", b)

	tr, err := Decode(b)
	if err != nil {
		t.Fatal(err)
	}
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	ropts := core.Options{Seed: opts.Seed, EventCap: opts.EventCap, DelayOnDivergence: true}
	setup := func(rt *core.Runtime) error { spec.SetupOS(rt.OS()); return nil }
	factory := func() []analysis.Analyzer {
		return []analysis.Analyzer{analysis.NewLeakDetector(), analysis.NewProfile()}
	}
	viaMem, mstats := AnalyzeBatch([]AnalyzeJob{{
		Job:          Job{Name: "mem", Module: mod, Handle: OpenTrace(tr), Opts: ropts, Setup: setup},
		NewAnalyzers: factory,
	}}, 1)
	if mstats.Failed != 0 {
		t.Fatalf("in-memory analysis failed: %v", viaMem[0].Err)
	}

	// Budget: half the decoded recording — streaming must live within it.
	var fullCost int64
	for _, ep := range tr.Epochs {
		fullCost += epochCost(ep)
	}
	for _, ck := range tr.Checkpoints {
		fullCost += ckptCost(ck)
	}
	limit := fullCost / 2
	st.SetCacheLimit(limit)

	h, err := st.Open("stream")
	if err != nil {
		t.Fatal(err)
	}
	defer h.Close()
	viaStore, sstats := AnalyzeBatch([]AnalyzeJob{{
		Job:          Job{Name: "stream", Module: mod, Handle: h, Opts: ropts, Setup: setup},
		NewAnalyzers: factory,
	}}, 1)
	if sstats.Failed != 0 {
		t.Fatalf("store-handle analysis failed: %v", viaStore[0].Err)
	}
	if !reflect.DeepEqual(viaMem[0].Findings, viaStore[0].Findings) {
		t.Fatalf("findings differ between paths:\nmem:   %+v\nstore: %+v",
			viaMem[0].Findings, viaStore[0].Findings)
	}
	cstats := st.Stats()
	if cstats.CachedBytes > limit {
		t.Fatalf("cache cost %d exceeds the %d budget (full decode costs %d)",
			cstats.CachedBytes, limit, fullCost)
	}
	if cstats.Misses == 0 {
		t.Fatal("streaming analyze never touched the store cache")
	}

	replayed, rstats := ReplayBatch([]Job{{Name: "stream", Module: mod, Handle: h, Opts: ropts, Setup: setup}}, 1)
	if rstats.Failed != 0 {
		t.Fatalf("store-handle replay failed: %v", replayed[0].Err)
	}
	after := st.Stats()
	if after.CachedBytes > limit {
		t.Fatalf("cache cost %d after replay exceeds the %d budget", after.CachedBytes, limit)
	}
	if after.Misses == cstats.Misses {
		t.Fatal("streaming replay never re-fetched an evicted frame")
	}
}
