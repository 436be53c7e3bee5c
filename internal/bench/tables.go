package bench

import (
	"errors"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/interp"
	"repro/internal/workloads"
)

// Table1Row is one application's memory-difference measurements (§5.2): the
// percentage of heap bytes that differ between the original execution and a
// re-execution, for the default library ("Orig") and iReplayer ("IR").
type Table1Row struct {
	App  string
	Orig float64
	IR   float64
}

// Table1 measures every application. Each program carries the §5.2
// methodology's implanted buffer overflow at the end of main, which is what
// triggers the in-situ re-execution under iReplayer.
func Table1(specs []workloads.Spec, scale float64) ([]Table1Row, error) {
	var rows []Table1Row
	for _, s := range specs {
		s := scaleSpec(s, scale)
		row := Table1Row{App: s.Name}
		var err error
		if row.Orig, err = table1Orig(s); err != nil {
			return nil, fmt.Errorf("%s orig: %w", s.Name, err)
		}
		if row.IR, err = table1IR(s); err != nil {
			return nil, fmt.Errorf("%s ir: %w", s.Name, err)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// table1Orig runs the program twice as separate "processes" — fresh ASLR
// placement, default global-heap allocator — and diffs the final heap
// images over the used extent, the §5.2 methodology for the "Orig" row.
func table1Orig(s workloads.Spec) (float64, error) {
	img := func(aslr int64) ([]byte, error) {
		mod, err := s.Build()
		if err != nil {
			return nil, err
		}
		rt, err := core.New(workloads.ImplantOverflow(mod), core.Options{
			DisableRecording: true,
			UseLibCAllocator: true,
			ASLRSeed:         aslr,
			Seed:             7,
		})
		if err != nil {
			return nil, err
		}
		s.SetupOS(rt.OS())
		if _, err := rt.Run(); err != nil {
			return nil, err
		}
		return rt.Mem().HeapImage(), nil
	}
	a, err := img(101)
	if err != nil {
		return 0, err
	}
	b, err := img(20207)
	if err != nil {
		return 0, err
	}
	return extentDiffPercent(a, b), nil
}

// table1IR records the program (implanted overflow included), lets the
// overflow detector trigger the in-situ re-execution, and diffs the heap
// image at the original epoch end against the image after the matched
// replay.
func table1IR(s workloads.Spec) (float64, error) {
	mod, err := s.Build()
	if err != nil {
		return 0, err
	}
	d := detect.New(detect.Config{Overflow: true})
	var img1, img2 []byte
	opts := core.Options{
		Seed:              7,
		MaxReplays:        2000,
		DelayOnDivergence: true,
		OnEpochEnd: func(rt *core.Runtime, info core.EpochEndInfo) core.Decision {
			dec := d.OnEpochEnd(rt, info)
			if dec == core.Replay && img1 == nil {
				img1 = rt.Mem().HeapImage()
			}
			return dec
		},
		OnReplayMatched: func(rt *core.Runtime, attempts int) core.Decision {
			if img2 == nil {
				img2 = rt.Mem().HeapImage()
			}
			return d.OnReplayMatched(rt, attempts)
		},
	}
	rt, err := core.New(workloads.ImplantOverflow(mod), opts)
	if err != nil {
		return 0, err
	}
	if err := d.Attach(rt); err != nil {
		return 0, err
	}
	s.SetupOS(rt.OS())
	if _, err := rt.Run(); err != nil {
		return 0, err
	}
	if img1 == nil || img2 == nil {
		return 0, fmt.Errorf("re-execution did not trigger")
	}
	return extentDiffPercent(img1, img2), nil
}

// extentDiffPercent reports differing bytes as a percentage of the heap's
// used extent — the span from the arena base to the last byte touched in
// either image. This matches diffing the in-use heap pages (as the paper
// does): an arena-relative percentage would undercount by dividing by
// untouched reserve space, while an occupied-bytes-only denominator would
// saturate at ~100% whenever ASLR slides the whole layout.
func extentDiffPercent(a, b []byte) float64 {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	extent := 0
	for i := n - 1; i >= 0; i-- {
		if a[i] != 0 || b[i] != 0 {
			extent = i + 1
			break
		}
	}
	if extent == 0 {
		return 0
	}
	diff := 0
	for i := 0; i < extent; i++ {
		if a[i] != b[i] {
			diff++
		}
	}
	return 100 * float64(diff) / float64(extent)
}

// Table2 reproduces the Crasher experiment (§5.2.1): run the racy program
// `runs` times; for each run whose race fires (a crash), count how many
// replay attempts the divergence search needs to reproduce the crash, and
// bucket the counts as the paper does (1, 2, 3, ≥4).
type Table2Result struct {
	Runs      int
	Crashes   int
	Buckets   [4]int // attempts 1, 2, 3, >=4
	Failures  int    // crashes never reproduced within the attempt cap
	MaxNeeded int
}

// Table2 runs the experiment.
func Table2(runs int, spec workloads.CrasherSpec) (Table2Result, error) {
	res := Table2Result{Runs: runs}
	for i := 0; i < runs; i++ {
		reproduced := false
		attempts := 0
		opts := core.Options{
			Seed:              int64(i),
			MaxReplays:        1000,
			DelayOnDivergence: true,
			OnEpochEnd: func(rt *core.Runtime, info core.EpochEndInfo) core.Decision {
				if info.Reason == core.StopFault && !reproduced {
					return core.Replay
				}
				return core.Proceed
			},
			OnReplayMatched: func(rt *core.Runtime, a int) core.Decision {
				reproduced = true
				attempts = a
				return core.Proceed
			},
		}
		rt, err := core.New(spec.Build(), opts)
		if err != nil {
			return res, err
		}
		_, runErr := rt.Run()
		if runErr == nil {
			continue // race did not fire
		}
		var trap *interp.Trap
		if !errors.As(runErr, &trap) {
			return res, fmt.Errorf("run %d: unexpected error %v", i, runErr)
		}
		res.Crashes++
		if !reproduced {
			res.Failures++
			continue
		}
		if attempts > res.MaxNeeded {
			res.MaxNeeded = attempts
		}
		switch {
		case attempts <= 1:
			res.Buckets[0]++
		case attempts == 2:
			res.Buckets[1]++
		case attempts == 3:
			res.Buckets[2]++
		default:
			res.Buckets[3]++
		}
	}
	return res, nil
}

// Table3Row is one application's normalized-runtime row.
type Table3Row struct {
	App       string
	IRAlloc   float64
	IReplayer float64
}

// Table3 measures recording overhead for every application.
func Table3(specs []workloads.Spec, rounds int, scale float64) ([]Table3Row, error) {
	var rows []Table3Row
	for _, s := range specs {
		s := scaleSpec(s, scale)
		row := Table3Row{App: s.Name}
		var err error
		if row.IRAlloc, err = Normalized(s, SysIRAlloc, rounds); err != nil {
			return nil, err
		}
		if row.IReplayer, err = Normalized(s, SysIReplayer, rounds); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// Figure5Row is one application's detector-overhead comparison: iReplayer
// alone against iReplayer with both detectors.
type Figure5Row struct {
	App      string
	IR       float64
	IRDetect float64
}

// Figure5 measures detector overhead for every application.
func Figure5(specs []workloads.Spec, rounds int, scale float64) ([]Figure5Row, error) {
	var rows []Figure5Row
	for _, s := range specs {
		s := scaleSpec(s, scale)
		row := Figure5Row{App: s.Name}
		var err error
		if row.IR, err = Normalized(s, SysIReplayer, rounds); err != nil {
			return nil, err
		}
		if row.IRDetect, err = Normalized(s, SysIRDetect, rounds); err != nil {
			return nil, err
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// DetectionRow is one §5.4.1 corpus result.
type DetectionRow struct {
	Bug      string
	Kind     string
	Detected bool
	SiteOK   bool
	Blamed   string
}

// DetectionTable runs the bug corpus through the detectors.
func DetectionTable() ([]DetectionRow, error) {
	var rows []DetectionRow
	for _, b := range workloads.Corpus() {
		d := detect.New(detect.Config{Overflow: true, UseAfterFree: true})
		rt, err := core.New(b.Build(), d.Options())
		if err != nil {
			return nil, err
		}
		if err := d.Attach(rt); err != nil {
			return nil, err
		}
		if _, err := rt.Run(); err != nil {
			return nil, fmt.Errorf("%s: %w", b.Name, err)
		}
		rep := d.Report()
		row := DetectionRow{Bug: b.Name, Kind: "overflow"}
		if b.Kind == workloads.BugUseAfterFree {
			row.Kind = "use-after-free"
		}
		row.Detected = len(rep.Violations) > 0
		if len(rep.RootCauses) > 0 && len(rep.RootCauses[0].Hits) > 0 {
			row.Blamed = rep.RootCauses[0].Hits[0].Stack[0].Func
			row.SiteOK = row.Blamed == b.Site
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// scaleSpec shrinks or grows a workload's iteration count.
func scaleSpec(s workloads.Spec, scale float64) workloads.Spec {
	if scale > 0 && scale != 1 {
		it := int(float64(s.Iters) * scale)
		if it < 3 {
			it = 3
		}
		s.Iters = it
	}
	return s
}

// --- printers ---

// PrintTable1 renders rows like the paper's Table 1.
func PrintTable1(w io.Writer, rows []Table1Row) {
	fmt.Fprintf(w, "Table 1: %% memory difference between original execution and re-execution\n")
	fmt.Fprintf(w, "%-15s %8s %8s\n", "application", "Orig", "IR")
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %8.2f %8.2f\n", r.App, r.Orig, r.IR)
	}
}

// PrintTable2 renders the Crasher bucket percentages like the paper's
// Table 2.
func PrintTable2(w io.Writer, r Table2Result) {
	fmt.Fprintf(w, "Table 2: reproducing Crasher's race (%d runs, %d crashed = %.1f%%)\n",
		r.Runs, r.Crashes, 100*float64(r.Crashes)/float64(max(1, r.Runs)))
	fmt.Fprintf(w, "%-14s %8s %8s %8s %8s\n", "replay times", "1", "2", "3", ">=4")
	den := float64(max(1, r.Crashes))
	fmt.Fprintf(w, "%-14s %7.3f%% %7.3f%% %7.3f%% %7.3f%%\n", "percentage",
		100*float64(r.Buckets[0])/den, 100*float64(r.Buckets[1])/den,
		100*float64(r.Buckets[2])/den, 100*float64(r.Buckets[3])/den)
	if r.Failures > 0 {
		fmt.Fprintf(w, "unreproduced: %d\n", r.Failures)
	}
}

// PrintTable3 renders normalized runtimes like the paper's Table 3,
// including the closing average row.
func PrintTable3(w io.Writer, rows []Table3Row) {
	fmt.Fprintf(w, "Table 3: performance overhead (normalized runtime)\n")
	fmt.Fprintf(w, "%-15s %9s %10s\n", "application", "IR-Alloc", "iReplayer")
	var a, b float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %9.3f %10.3f\n", r.App, r.IRAlloc, r.IReplayer)
		a += r.IRAlloc
		b += r.IReplayer
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(w, "%-15s %9.3f %10.3f\n", "average", a/n, b/n)
	}
}

// PrintFigure5 renders the detector comparison as the series behind
// Figure 5.
func PrintFigure5(w io.Writer, rows []Figure5Row) {
	fmt.Fprintf(w, "Figure 5: detector overhead (normalized runtime)\n")
	fmt.Fprintf(w, "%-15s %10s %17s\n", "application", "iReplayer", "iReplayer(OF+DP)")
	var a, b float64
	for _, r := range rows {
		fmt.Fprintf(w, "%-15s %10.3f %17.3f\n", r.App, r.IR, r.IRDetect)
		a += r.IR
		b += r.IRDetect
	}
	n := float64(len(rows))
	if n > 0 {
		fmt.Fprintf(w, "%-15s %10.3f %17.3f\n", "average", a/n, b/n)
	}
}

// PrintDetection renders the §5.4.1 effectiveness table.
func PrintDetection(w io.Writer, rows []DetectionRow) {
	fmt.Fprintf(w, "Detection effectiveness (5.4.1)\n")
	fmt.Fprintf(w, "%-20s %-15s %9s %9s %s\n", "bug", "kind", "detected", "site-ok", "blamed")
	for _, r := range rows {
		fmt.Fprintf(w, "%-20s %-15s %9v %9v %s\n", r.Bug, r.Kind, r.Detected, r.SiteOK, r.Blamed)
	}
}
