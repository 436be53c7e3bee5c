package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"text/tabwriter"
)

// agreement is one metric × workload pairing of two runs of the same code.
type agreement struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Unit     string  `json:"unit"`
	Bound    float64 `json:"bound"`
	A        float64 `json:"a"`
	B        float64 `json:"b"`
	// Diff is |b-a| as a share of a; SpreadA and SpreadB are each run's own
	// interquartile spread over its repetitions.
	Diff    float64 `json:"diff"`
	SpreadA float64 `json:"spread_a"`
	SpreadB float64 `json:"spread_b"`
	Agree   bool    `json:"agree"`
	Focus   bool    `json:"focus"`
}

// compare pairs up two results of one workload. It refuses results that
// were not measured on the same inputs and host shape.
func compare(a, b *result) ([]agreement, error) {
	pa, pb := a.Provenance, b.Provenance
	if a.Workload != b.Workload || a.Traced != b.Traced {
		return nil, fmt.Errorf("not comparable: %s and %s are different runs", a.fileName(), b.fileName())
	}
	if pa.NProc != pb.NProc || pa.Seed != pb.Seed {
		return nil, fmt.Errorf("not comparable: nproc %d seed %d against nproc %d seed %d",
			pa.NProc, pa.Seed, pb.NProc, pb.Seed)
	}
	var out []agreement
	for _, ma := range a.Metrics {
		mb, ok := b.metric(ma.Name)
		if !ok || ma.Bound == 0 {
			continue
		}
		ag := agreement{
			Workload: a.Workload, Metric: ma.Name, Unit: ma.Unit, Bound: ma.Bound,
			A: ma.Median, B: mb.Median, SpreadA: ma.spread(), SpreadB: mb.spread(), Focus: ma.Focus,
		}
		if ma.Median != 0 {
			ag.Diff = (mb.Median - ma.Median) / ma.Median
			if ag.Diff < 0 {
				ag.Diff = -ag.Diff
			}
		}
		ag.Agree = ag.Diff <= ma.Bound
		out = append(out, ag)
	}
	return out, nil
}

func compareFiles(pathA, pathB string) ([]agreement, error) {
	a, err := readResult(pathA)
	if err != nil {
		return nil, err
	}
	b, err := readResult(pathB)
	if err != nil {
		return nil, err
	}
	return compare(a, b)
}

// runSelfcheck runs the untraced suite twice, each workload in a fresh
// process, and reports per metric × workload whether the two medians agree
// within the metric's bound. This is the measurement the bounds in
// BENCHMARK.json were fixed from; a pairing that does not agree is listed
// as unresolved, and the command fails.
func runSelfcheck(m *manifest, out string, args []string) int {
	var all []agreement
	code := 0
	sets := [2]string{filepath.Join(out, "selfcheck-a"), filepath.Join(out, "selfcheck-b")}
	for _, dir := range sets {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "irbench:", err)
			return 2
		}
		// The children's tables are noise here; their result files are read
		// back below.
		for _, w := range m.Workloads {
			cmd := exec.Command(os.Args[0], append([]string{"-workload", w.Name, "-out", dir}, args...)...)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(os.Stderr, "irbench: workload %s: %v\n", w.Name, err)
				code = 1
			}
		}
	}
	for _, w := range m.Workloads {
		ags, err := compareFiles(filepath.Join(sets[0], w.Name+".json"), filepath.Join(sets[1], w.Name+".json"))
		if err != nil {
			fmt.Fprintln(os.Stderr, "irbench:", err)
			code = 1
		}
		all = append(all, ags...)
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\ta\tb\tdiff\tbound\tspread a\tspread b\t")
	unresolved := 0
	for _, ag := range all {
		verdict := "agree"
		if !ag.Agree {
			verdict = "UNRESOLVED"
			unresolved++
		}
		if !ag.Focus {
			verdict += " (context)"
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%.6g\t%.6g\t%.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
			ag.Workload, ag.Metric, ag.Unit, ag.A, ag.B, ag.Diff*100, ag.Bound*100,
			ag.SpreadA*100, ag.SpreadB*100, verdict)
	}
	tw.Flush()
	fmt.Printf("%d pairings, %d unresolved\n", len(all), unresolved)
	b, err := json.MarshalIndent(struct {
		Unresolved int         `json:"unresolved"`
		Pairings   []agreement `json:"pairings"`
	}{unresolved, all}, "", "  ")
	if err == nil {
		err = os.WriteFile(filepath.Join(out, "selfcheck.json"), append(b, '\n'), 0o644)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "irbench:", err)
		return 1
	}
	if unresolved > 0 {
		code = 1
	}
	return code
}
