package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"
)

func TestRegistryRenderIsLintClean(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("t_events_total", "Events seen.")
	c.Add(3)
	g := r.NewGauge("t_depth", "Queue depth.")
	g.Set(7)
	r.NewGaugeFunc("t_uptime_seconds", "Uptime.", func() float64 { return 1.5 })
	h := r.NewHistogram("t_latency_seconds", "Latency.", []float64{0.001, 0.01, 0.1})
	h.Observe(0.005)
	h.Observe(0.5) // overflow -> +Inf only
	hv := r.NewHistogramVec("t_route_seconds", "Route latency.", "route", []float64{0.01, 0.1})
	hv.With("jobs").Observe(0.02)
	hv.With("traces").Observe(0.002)
	cv := r.NewCounterVec("t_jobs_total", "Jobs by state.", "state")
	cv.With("done").Inc()
	cv.With("error").Add(2)

	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if probs := LintProm(out); len(probs) != 0 {
		t.Fatalf("lint problems in rendered output:\n%s\n---\n%s", strings.Join(probs, "\n"), out)
	}
	for _, want := range []string{
		"# HELP t_events_total Events seen.",
		"# TYPE t_events_total counter",
		"t_events_total 3",
		`t_latency_seconds_bucket{le="+Inf"} 2`,
		`t_route_seconds_bucket{route="jobs",le="0.01"} 0`,
		`t_jobs_total{state="error"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
}

func TestLintCatchesBadExpositions(t *testing.T) {
	cases := map[string]string{
		"no help/type":   "foo 1\n",
		"counter suffix": "# HELP x_bad x\n# TYPE x_bad counter\nx_bad 1\n",
		"non-monotone": "# HELP h_seconds h\n# TYPE h_seconds histogram\n" +
			`h_seconds_bucket{le="0.1"} 5` + "\n" +
			`h_seconds_bucket{le="1"} 3` + "\n" +
			`h_seconds_bucket{le="+Inf"} 5` + "\n" +
			"h_seconds_sum 1\nh_seconds_count 5\n",
		"missing +Inf": "# HELP h2_seconds h\n# TYPE h2_seconds histogram\n" +
			`h2_seconds_bucket{le="1"} 3` + "\n" +
			"h2_seconds_sum 1\nh2_seconds_count 3\n",
	}
	for name, text := range cases {
		if probs := LintProm(text); len(probs) == 0 {
			t.Errorf("%s: lint accepted bad exposition:\n%s", name, text)
		}
	}
}

func TestHistogramOverflowCountsOnlyInInf(t *testing.T) {
	r := NewRegistry()
	h := r.NewHistogram("o_seconds", "x", []float64{1})
	h.Observe(0.5)
	h.Observe(99)
	var b strings.Builder
	if err := r.Render(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.Contains(out, `o_seconds_bucket{le="1"} 1`) {
		t.Errorf("finite bucket wrong:\n%s", out)
	}
	if !strings.Contains(out, `o_seconds_bucket{le="+Inf"} 2`) {
		t.Errorf("+Inf bucket wrong:\n%s", out)
	}
	if h.Count() != 2 {
		t.Errorf("Count = %d, want 2", h.Count())
	}
}

func TestRecorderRingBoundsAndOrder(t *testing.T) {
	rec := NewRecorder(4)
	base := time.Now()
	for i := 0; i < 10; i++ {
		sp := rec.StartAt("s", base.Add(time.Duration(i)*time.Millisecond))
		sp.EndAt(base.Add(time.Duration(i)*time.Millisecond + time.Microsecond))
	}
	spans, dropped := rec.Snapshot()
	if len(spans) != 4 {
		t.Fatalf("ring kept %d spans, want 4", len(spans))
	}
	if dropped != 6 {
		t.Errorf("dropped = %d, want 6", dropped)
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Errorf("snapshot not oldest-first at %d", i)
		}
	}
}

// TestRecorderRingGrowsOnDemand: a recorder with the daemon's per-job limit
// that has seen three spans holds a ring sized for three, not for the limit;
// past the limit it still drops oldest-first.
func TestRecorderRingGrowsOnDemand(t *testing.T) {
	const jobSpanCap = 4096 // internal/server's per-job ring limit
	rec := NewRecorder(jobSpanCap)
	for i := 0; i < 3; i++ {
		rec.Start("s").End()
	}
	if n, c := rec.Len(), cap(rec.ring); n != 3 || c >= 64 {
		t.Fatalf("after 3 spans: len %d cap %d, want len 3 and cap < 64", n, c)
	}
	for i := 3; i < jobSpanCap+5; i++ {
		rec.Start(fmt.Sprint(i)).End()
	}
	spans, dropped := rec.Snapshot()
	if len(spans) != jobSpanCap || dropped != 5 {
		t.Fatalf("at the limit: %d spans, %d dropped; want %d and 5", len(spans), dropped, jobSpanCap)
	}
	if spans[0].Name != "5" || spans[len(spans)-1].Name != fmt.Sprint(jobSpanCap+4) {
		t.Fatalf("ring holds %q..%q, want the newest %d", spans[0].Name, spans[len(spans)-1].Name, jobSpanCap)
	}
}

func TestNilSpanSafety(t *testing.T) {
	var rec *Recorder
	sp := rec.Start("root")
	sp.SetAttr("k", "v")
	sp.SetTID(3)
	child := sp.Child("c")
	child.End()
	sp.Record("pre", time.Now(), time.Now())
	sp.End()
	if n := rec.Len(); n != 0 {
		t.Fatalf("nil recorder has %d spans", n)
	}
}

func TestSetEnabledGatesCollection(t *testing.T) {
	prev := SetEnabled(false)
	defer SetEnabled(prev)
	r := NewRegistry()
	h := r.NewHistogram("g_seconds", "x", nil)
	h.Observe(1)
	c := r.NewCounter("g_total", "x")
	c.Inc()
	rec := NewRecorder(8)
	sp := rec.Start("s")
	sp.End()
	if h.Count() != 0 || c.Value() != 0 || rec.Len() != 0 {
		t.Fatalf("disabled telemetry still collected: hist=%d counter=%v spans=%d",
			h.Count(), c.Value(), rec.Len())
	}
}

func TestChromeTraceExport(t *testing.T) {
	rec := NewRecorder(64)
	base := time.Now()
	root := rec.StartAt("segment 0", base)
	root.SetTID(1)
	for i, stage := range []string{"decode", "fold", "execute", "stitch"} {
		st := base.Add(time.Duration(i) * time.Millisecond)
		root.Record(stage, st, st.Add(time.Millisecond))
	}
	root.SetAttr("epochs", "8")
	root.EndAt(base.Add(4 * time.Millisecond))

	spans, _ := rec.Snapshot()
	var b strings.Builder
	if err := ChromeTrace(&b, spans); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(b.String()), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, b.String())
	}
	if len(doc.TraceEvents) != 5 {
		t.Fatalf("got %d events, want 5", len(doc.TraceEvents))
	}
	lastTS := -1.0
	for _, ev := range doc.TraceEvents {
		if ev["ph"] != "X" {
			t.Errorf("event ph = %v, want X", ev["ph"])
		}
		for _, k := range []string{"pid", "tid", "ts", "dur", "name"} {
			if _, ok := ev[k]; !ok {
				t.Errorf("event missing %s: %v", k, ev)
			}
		}
		ts := ev["ts"].(float64)
		if ts < lastTS {
			t.Errorf("ts not monotone: %v after %v", ts, lastTS)
		}
		lastTS = ts
	}
	// The root span sorts before its first child at equal ts (longer dur).
	if doc.TraceEvents[0]["name"] != "segment 0" {
		t.Errorf("first event = %v, want root span", doc.TraceEvents[0]["name"])
	}
	if args, ok := doc.TraceEvents[0]["args"].(map[string]any); !ok || args["epochs"] != "8" {
		t.Errorf("root span args = %v", doc.TraceEvents[0]["args"])
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]string{
		"debug": "DEBUG", "info": "INFO", "WARN": "WARN", "error": "ERROR", "": "INFO",
	} {
		lvl, err := ParseLevel(in)
		if err != nil {
			t.Fatalf("ParseLevel(%q): %v", in, err)
		}
		if lvl.String() != want {
			t.Errorf("ParseLevel(%q) = %v, want %v", in, lvl, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted junk")
	}
}
