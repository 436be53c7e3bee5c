package main

import (
	"math"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

// The quartile vectors are the output of Python 3.11's
// statistics.quantiles(xs, n=4), the rule the benchmark contract names.
func TestMedianAndQuartiles(t *testing.T) {
	for _, c := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{1, 2}, 0.75, 1.5, 2.25},
		{[]float64{1, 2, 3}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 3.5, 5.25},
		{[]float64{7}, 7, 7, 7},
	} {
		s := summarize(c.xs)
		if !near(s.Q1, c.q1) || !near(s.Median, c.med) || !near(s.Q3, c.q3) || s.N != len(c.xs) {
			t.Errorf("summarize(%v) = %+v, want q1 %g median %g q3 %g", c.xs, s, c.q1, c.med, c.q3)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
	if s := (summary{Median: 10, Q1: 9, Q3: 11.5}); !near(s.spread(), 0.25) {
		t.Errorf("spread = %g, want 0.25", s.spread())
	}
}

func TestPercentiles(t *testing.T) {
	xs := make([]float64, 101)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {95, 95}, {99.9, 99.9}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(0..100, %g) = %g, want %g", c.p, got, c.want)
		}
	}
	// The highest percentile worth reporting has ten samples beyond it.
	for _, c := range []struct {
		n    int
		want float64
	}{{99, 0}, {100, 90}, {199, 90}, {200, 95}, {240, 95}, {999, 95}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
	pool := []float64{1, 2, 3, 4, 100, 6, 7, 8}
	s := pooledPercentile(pool, 50, 2)
	if !near(s.Median, 5) || s.N != 8 || !near(s.Q1, 1.25) || !near(s.Q3, 8.75) {
		t.Errorf("pooledPercentile = %+v", s) // chunks {1,2,3,4} and {100,6,7,8}: medians 2.5 and 7.5
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Unix(1000, 0)
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	spans := []obs.SpanRecord{
		{ID: 1, Name: "parent", Start: at(0), End: at(100)},
		{ID: 2, Parent: 1, Name: "a", Start: at(10), End: at(30)},
		{ID: 3, Parent: 1, Name: "b", Start: at(20), End: at(50)},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: at(90), End: at(120)}, // sticks out
		{ID: 5, Parent: 3, Name: "grandchild", Start: at(25), End: at(45)},
		{ID: 6, Name: "other root", Start: at(0), End: at(500)},
	}
	// Covered: 10..50 and 90..100, so 50 ms of the parent's 100 are its own.
	if got := selfTime(spans, 1); got != 50*time.Millisecond {
		t.Errorf("selfTime(parent) = %v, want 50ms", got)
	}
	if got := selfTime(spans, 3); got != 10*time.Millisecond {
		t.Errorf("selfTime(b) = %v, want 10ms", got)
	}
	if got := selfTime(spans, 5); got != 20*time.Millisecond {
		t.Errorf("selfTime(leaf) = %v, want its whole 20ms", got)
	}
	if got := selfTime(spans, 99); got != 0 {
		t.Errorf("selfTime(unknown) = %v, want 0", got)
	}
	if s, ok := lastSpan(spans, "c"); !ok || s.ID != 4 {
		t.Errorf("lastSpan(c) = %+v, %v", s, ok)
	}
	if s, ok := childOf(spans, 3, "grandchild"); !ok || s.ID != 5 {
		t.Errorf("childOf(b, grandchild) = %+v, %v", s, ok)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

// The manifest is the catalog: its names must be well-formed and its
// workloads exactly the ones this package defines.
func TestManifestMatchesTheBenchmark(t *testing.T) {
	m, _, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind, name string) {
		if !nameRE.MatchString(name) {
			t.Errorf("%s name %q is malformed", kind, name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	var names []string
	for _, w := range m.Workloads {
		check("workload", w.Name)
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var defined []string
	for _, w := range allWorkloads {
		defined = append(defined, w.Name)
		if w.Spec.Threads != 2 {
			t.Errorf("workload %s has %d worker threads, want 2", w.Name, w.Spec.Threads)
		}
	}
	if !reflect.DeepEqual(names, defined) {
		t.Errorf("manifest workloads %v, benchmark defines %v", names, defined)
	}
	e2e := map[string]bool{}
	for _, d := range m.EndToEnd {
		check("end-to-end metric", d.Name)
		e2e[d.Name] = true
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("metric %s: unit %q better %q", d.Name, d.Unit, d.Better)
		}
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range m.PerLayer {
		check("per-layer metric", d.Name)
		if !unitRE.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound != 0 {
			t.Errorf("metric %s: unit %q better %q bound %g", d.Name, d.Unit, d.Better, d.Bound)
		}
	}
	if len(m.EndToEnd) != 14 || !e2e["setup_s"] {
		t.Errorf("want the 14 end-to-end metrics including setup_s, have %d", len(m.EndToEnd))
	}
	for metric, ws := range focus {
		if !e2e[metric] {
			t.Errorf("focus names %q, which is not an end-to-end metric", metric)
		}
		for _, w := range ws {
			if workloadByName(w) == nil {
				t.Errorf("focus[%s] names unknown workload %q", metric, w)
			}
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 || len(m.Paths) != 1 || m.Paths[0] != "benchmarks" {
		t.Errorf("run_seconds %d paths %v", m.RunSeconds, m.Paths)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "hit", "--seed", "3", "--seconds", "10", "--trace", "1"})
	want := []string{"--workload", "hit", "--seed", "3", "--seconds", "10", "-trace=1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %v, want %v", got, want)
	}
	if got := normalizeArgs([]string{"-trace", "-workload", "all"}); !reflect.DeepEqual(got, []string{"-trace", "-workload", "all"}) {
		t.Errorf("a bare -trace must stay as it is, got %v", got)
	}
}

func TestJobOrderIsSeeded(t *testing.T) {
	w := workloadByName("served-mix")
	a, b := jobOrder(w, 7, 1), jobOrder(w, 7, 1)
	if !reflect.DeepEqual(a, b) {
		t.Error("the same seed and round gave two job orders")
	}
	if reflect.DeepEqual(a, jobOrder(w, 11, 1)) || reflect.DeepEqual(a, jobOrder(w, 7, 2)) {
		t.Error("another seed or round gave the same job order")
	}
	// Only the order may differ: every seed and round does the same work.
	key := func(jobs []servedJob) []string {
		var ks []string
		for _, j := range jobs {
			ks = append(ks, j.Kind+" "+j.Trace+j.App)
		}
		sort.Strings(ks)
		return ks
	}
	if !reflect.DeepEqual(key(a), key(jobOrder(w, 11, 3))) {
		t.Error("the job set depends on the seed")
	}
	kinds := map[string]int{}
	for _, j := range a {
		kinds[j.Kind]++
		if (j.Kind == "record") != (j.App != "") || (j.Kind == "record") == (j.Trace != "") {
			t.Errorf("malformed job %+v", j)
		}
		if j.Kind == "segment-replay" && j.Trace != "streamcluster-ck" {
			t.Errorf("segment replay of %s, want the checkpointed trace", j.Trace)
		}
	}
	want := map[string]int{"analyze": 20, "replay": 12, "segment-replay": 4, "record": 4}
	if !reflect.DeepEqual(kinds, want) {
		t.Errorf("job mix %v, want %v", kinds, want)
	}
}

// small shrinks a workload so a whole repetition takes tens of
// milliseconds; shapes, phases and checks stay the same.
func small(t *testing.T, name string) *workload {
	t.Helper()
	w := *workloadByName(name)
	w.Spec.Iters = 40
	w.Jobs = 10
	return &w
}

func sampleNames(s samples) []string {
	var names []string
	for n := range s {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// One untraced and one traced repetition of every (shrunken) workload must
// pass every check and produce exactly the metrics the manifest lists — no
// more, no fewer — and the same seed must record the same number of events.
func TestRepetitionsProduceTheManifestsMetrics(t *testing.T) {
	m, _, err := loadManifest()
	if err != nil {
		t.Fatal(err)
	}
	// Metrics derived after the repetition loop, not sampled inside it.
	derived := map[string]bool{"setup_s": true, "peak_rss_mb": true, "served_job_p50_ms": true,
		"served_job_p95_ms": true, "bench.trace_overhead": true}
	want := func(defs []metricDef, also ...string) []string {
		names := also
		for _, d := range defs {
			if !derived[d.Name] {
				names = append(names, d.Name)
			}
		}
		sort.Strings(names)
		return names
	}
	for _, def := range allWorkloads {
		w := small(t, def.Name)
		g := &gate{}
		e, err := setup(w, 7, t.TempDir(), g)
		if err != nil {
			t.Fatal(err)
		}
		e.slice = 0 // one operation per phase
		// Only one workload pays for the traced repetition (it runs the
		// same phases and checks, decomposed); the others run untraced.
		if w.Name == "alloc-io" {
			rec := obs.NewRecorder(spanCap)
			root := rec.Start(w.Name)
			ls := samples{}
			e.tracedRepetition(ls, root, rec)
			root.End()
			if got, want := sampleNames(ls), want(m.PerLayer); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: traced repetition sampled %v, want %v", w.Name, got, want)
			}
			if n := ls["analysis.findings"]; len(n) != 1 || n[0] != float64(w.leaks()) {
				t.Errorf("%s: analysis.findings = %v, want %d", w.Name, n, w.leaks())
			}
		} else {
			s := samples{}
			e.repetition(s)
			if got, want := sampleNames(s), want(m.EndToEnd, servedLatencies); !reflect.DeepEqual(got, want) {
				t.Errorf("%s: untraced repetition sampled %v, want %v", w.Name, got, want)
			}
		}
		if g.failed != 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.Name, g.failed, g.attempted, g.errs)
		}

		// Same seed, same inputs: the recording has the same events.
		st, err := trace.OpenStore(e.libDir)
		if err != nil {
			t.Fatal(err)
		}
		var events []int64
		for _, name := range []string{"a", "b"} {
			r, err := e.record(nil, st, name, w.CheckpointEvery, 0)
			if err != nil {
				t.Fatal(err)
			}
			events = append(events, r.events)
		}
		if events[0] != events[1] || events[0] == 0 {
			t.Errorf("%s: two recordings with one seed have %v events", w.Name, events)
		}
		e.close()
	}
}

// A recording with one flipped byte must be counted as failed operations,
// and no replay or analysis speed may be reported from it.
func TestTamperedTraceIsAFailureNotASpeed(t *testing.T) {
	w := small(t, "lock-storm")
	g := &gate{}
	e, err := setup(w, 7, t.TempDir(), g)
	if err != nil {
		t.Fatal(err)
	}
	defer e.close()
	e.slice = 0
	s := samples{}
	rec := e.recordPhases(s)
	if rec == nil || g.failed != 0 {
		t.Fatalf("recording failed: %v", g.errs)
	}
	st, err := trace.OpenStore(e.libDir)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(st.Path(w.Name))
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x40 // the middle of the file is inside an epoch frame
	if err := os.WriteFile(st.Path(w.Name), b, 0o644); err != nil {
		t.Fatal(err)
	}
	e.offlinePhases(s, rec)
	if g.failed == 0 {
		t.Fatal("every offline phase passed on a tampered trace")
	}
	for _, name := range []string{"replay_events_per_s", "analyze_events_per_s",
		"segment_replay_events_per_s", "segment_analyze_events_per_s", "coldstart_segment_ms"} {
		if len(s[name]) != 0 {
			t.Errorf("%s reported %v from a tampered trace", name, s[name])
		}
	}
	r := &result{Failed: g.failed, Attempted: g.attempted}
	if line := r.contractLine(); !regexp.MustCompile(`"correct":false`).MatchString(line) {
		t.Errorf("contract line claims a correct run: %s", line)
	}
}

func TestCompareFlagsDifferentHostsAndSeeds(t *testing.T) {
	def := metricDef{Name: "replay_events_per_s", Unit: "events/s", Better: "higher", Bound: 0.1}
	mk := func(nproc int, seed int64, v float64) *result {
		return &result{Workload: "lock-storm", Provenance: provenance{NProc: nproc, Seed: seed},
			Metrics: []measured{{metricDef: def, summary: summary{Median: v, Q1: v, Q3: v, N: 7}}}}
	}
	ags, err := compare(mk(2, 7, 100), mk(2, 7, 108))
	if err != nil || len(ags) != 1 || !ags[0].Agree || !near(ags[0].Diff, 0.08) {
		t.Errorf("compare within bound = %+v, %v", ags, err)
	}
	if ags, _ := compare(mk(2, 7, 100), mk(2, 7, 85)); len(ags) != 1 || ags[0].Agree {
		t.Errorf("a 15%% difference agreed within a 10%% bound: %+v", ags)
	}
	if _, err := compare(mk(2, 7, 100), mk(4, 7, 100)); err == nil {
		t.Error("results from 2 and 4 processors compared")
	}
	if _, err := compare(mk(2, 7, 100), mk(2, 11, 100)); err == nil {
		t.Error("results from seeds 7 and 11 compared")
	}
}
