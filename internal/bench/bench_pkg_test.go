package bench

import (
	"sort"
	"strings"
	"testing"

	"repro/internal/hostrace"
	"repro/internal/workloads"
)

func smallApps(names ...string) []workloads.Spec {
	var out []workloads.Spec
	for _, n := range names {
		s, ok := workloads.ByName(n)
		if !ok {
			panic("unknown app " + n)
		}
		out = append(out, s)
	}
	return out
}

func TestRunOnceAllSystems(t *testing.T) {
	s, _ := workloads.ByName("sqlite")
	s.Iters = 6
	for _, sys := range []System{SysBaseline, SysIRAlloc, SysIReplayer, SysIRDetect} {
		if _, err := RunOnce(s, sys, 3); err != nil {
			t.Fatalf("%v: %v", sys, err)
		}
	}
}

func TestTable1ShapeOrigPositiveIRZero(t *testing.T) {
	rows, err := Table1(smallApps("swaptions", "pfscan"), 0.15)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Orig <= 0 {
			t.Errorf("%s: Orig diff = %.3f%%, want > 0 (ASLR + racing must shift the heap)", r.App, r.Orig)
		}
		if r.IR != 0 {
			t.Errorf("%s: IR diff = %.3f%%, want exactly 0 (identical replay)", r.App, r.IR)
		}
	}
}

func TestTable1CannealAblation(t *testing.T) {
	// canneal (ad hoc atomics) may fail identity; canneal-mutex must not.
	fixed := workloads.CannealMutex()
	fixed.Iters = 10
	diff, err := table1IR(fixed)
	if err != nil {
		t.Fatal(err)
	}
	if diff != 0 {
		t.Fatalf("canneal-mutex IR diff = %.3f%%, want 0 after replacing atomics with locks", diff)
	}
}

//ir:racy reproduces Crasher's data race on purpose to measure replay-attempt buckets
func TestTable2CrasherBuckets(t *testing.T) {
	if hostrace.Enabled {
		t.Skip("Crasher races on VM memory by design (§5.2.1)")
	}
	res, err := Table2(15, workloads.DefaultCrasher())
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 {
		t.Skip("race never fired")
	}
	if res.Failures > 0 {
		t.Fatalf("crashes not reproduced: %+v", res)
	}
	total := res.Buckets[0] + res.Buckets[1] + res.Buckets[2] + res.Buckets[3]
	if total != res.Crashes {
		t.Fatalf("buckets %v do not sum to crashes %d", res.Buckets, res.Crashes)
	}
	// First-attempt reproduction should dominate, as in the paper (99.87%).
	if res.Buckets[0] == 0 {
		t.Fatalf("no first-attempt reproductions: %+v", res)
	}
}

//ir:racy runs the racy benchmark sample; the races are the measurement subject
func TestTable3ShapeOnSample(t *testing.T) {
	if hostrace.Enabled {
		t.Skip("timing-shape assertions are meaningless under the race detector's overhead")
	}
	// Shape assertions only: tiny scaled runs on a shared host are noisy, so
	// the test checks sanity floors with slack, and leaves absolute numbers
	// to cmd/ir-bench.
	// Every sample is taken unconditionally and each metric is judged on its
	// median: one scheduling burst (single-CPU hosts, background
	// compilation) cannot trip a floor, and there is no
	// remeasure-until-it-passes bias.
	const samples = 3
	var fl, x [samples]Table3Row
	for i := 0; i < samples; i++ {
		rows, err := Table3(smallApps("fluidanimate", "x264"), 3, 0.4)
		if err != nil {
			t.Fatal(err)
		}
		byName := map[string]Table3Row{}
		for _, r := range rows {
			byName[r.App] = r
		}
		fl[i], x[i] = byName["fluidanimate"], byName["x264"]
	}
	med := func(rs [samples]Table3Row, pick func(Table3Row) float64) float64 {
		v := []float64{pick(rs[0]), pick(rs[1]), pick(rs[2])}
		sort.Float64s(v)
		return v[1]
	}
	// Sanity: no configuration should be wildly faster than the baseline.
	for app, rs := range map[string][samples]Table3Row{"fluidanimate": fl, "x264": x} {
		if m := med(rs, func(r Table3Row) float64 { return r.IReplayer }); m < 0.5 {
			t.Errorf("%s: median iReplayer = %.3f, implausibly below baseline", app, m)
		}
		if m := med(rs, func(r Table3Row) float64 { return r.IRAlloc }); m < 0.3 {
			t.Errorf("%s: median IRAlloc = %.3f, implausibly below baseline", app, m)
		}
	}
}

func TestDetectionTableAllDetected(t *testing.T) {
	rows, err := DetectionTable()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(workloads.Corpus()) {
		t.Fatalf("rows = %d", len(rows))
	}
	for _, r := range rows {
		if !r.Detected || !r.SiteOK {
			t.Errorf("%s: detected=%v siteOK=%v blamed=%q", r.Bug, r.Detected, r.SiteOK, r.Blamed)
		}
	}
}

func TestPrinters(t *testing.T) {
	var sb strings.Builder
	PrintTable1(&sb, []Table1Row{{App: "x", Orig: 1, IR: 0}})
	PrintTable2(&sb, Table2Result{Runs: 10, Crashes: 8, Buckets: [4]int{8, 0, 0, 0}})
	PrintTable3(&sb, []Table3Row{{App: "x", IRAlloc: 0.97, IReplayer: 1.03}})
	PrintFigure5(&sb, []Figure5Row{{App: "x", IR: 1.03, IRDetect: 1.05}})
	PrintDetection(&sb, []DetectionRow{{Bug: "b", Kind: "overflow", Detected: true, SiteOK: true, Blamed: "f"}})
	out := sb.String()
	for _, want := range []string{"Table 1", "Table 2", "Table 3", "Figure 5", "average", "Crasher",
		"Orig", "IR-Alloc", "iReplayer", "iReplayer(OF+DP)"} {
		if !strings.Contains(out, want) {
			t.Errorf("printer output missing %q", want)
		}
	}
	for _, gone := range []string{"CLAP", " RR", "ASan"} {
		if strings.Contains(out, gone) {
			t.Errorf("printer output still has the %q column", gone)
		}
	}
}
