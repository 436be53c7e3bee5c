// Command irbench is this repository's benchmark: five named workloads,
// fourteen end-to-end metrics with regression bounds, and — in a separate
// traced run — a per-layer table measured from outside, by timing calls
// into each package's public functions. BENCHMARK.json at the repository
// root is its contract; benchmarks/README.md explains every workload and
// metric.
//
// Usage (from the repository root):
//
//	go run ./benchmarks/irbench                         every workload, untraced
//	go run ./benchmarks/irbench -workload lock-storm    one workload
//	go run ./benchmarks/irbench -workload all -trace    the per-layer table
//	go run ./benchmarks/irbench -selfcheck              two full sets, compared
//
// One process measures one workload ("all" starts a fresh process per
// workload). The last line of a single-workload run's standard output is
// the contract's JSON result object. Results, Chrome trace files and the
// self-check report go to benchmarks/out/.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"time"

	"repro/internal/obs"
)

// setupAttempts is how many times a run sets up from scratch; setup_s is
// their median, so one slow disk flush does not read as a regression.
const setupAttempts = 3

func main() {
	os.Exit(run(os.Args[1:]))
}

// normalizeArgs lets the contract's "--trace 0" / "--trace 1" spelling
// reach a boolean flag: the flag package would read the detached value as
// the first positional argument.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		if (args[i] == "-trace" || args[i] == "--trace") && i+1 < len(args) &&
			(args[i+1] == "0" || args[i+1] == "1") {
			out = append(out, "-trace="+args[i+1])
			i++
			continue
		}
		out = append(out, args[i])
	}
	return out
}

func run(args []string) int {
	m, root, err := loadManifest()
	if err != nil {
		fmt.Fprintln(os.Stderr, "irbench:", err)
		return 2
	}
	fs := flag.NewFlagSet("irbench", flag.ContinueOnError)
	name := fs.String("workload", "all", "workload to run, or \"all\" (one fresh process each)")
	seed := fs.Int64("seed", 7, "input seed: feeds core.Options.Seed, ASLRSeed and the daemon job order")
	seconds := fs.Float64("seconds", float64(m.RunSeconds), "how long to measure, after set-up")
	traced := fs.Bool("trace", false, "traced run: the per-layer table and a Chrome trace file")
	selfcheck := fs.Bool("selfcheck", false, "run the untraced suite twice in fresh processes and compare the medians")
	out := fs.String("out", filepath.Join(root, "benchmarks", "out"), "output directory")
	if err := fs.Parse(normalizeArgs(args)); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "irbench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "irbench:", err)
		return 2
	}
	common := []string{"-seed", fmt.Sprint(*seed), "-seconds", fmt.Sprint(*seconds)}
	switch {
	case *selfcheck:
		return runSelfcheck(m, *out, common)
	case *name == "all":
		if *traced {
			common = append(common, "-trace")
		}
		return runAll(m, append(common, "-out", *out))
	}
	w := workloadByName(*name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "irbench: unknown workload %q\n", *name)
		return 2
	}
	r, err := runOne(m, root, w, *seed, *seconds, *traced, *out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "irbench:", err)
		return 1
	}
	r.print(os.Stdout)
	if err := r.write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "irbench:", err)
		return 1
	}
	fmt.Println(r.contractLine())
	if r.Failed > 0 {
		return 1
	}
	return 0
}

// runAll measures every workload in a fresh process of this binary, so each
// workload's peak RSS and warm-up are its own.
func runAll(m *manifest, args []string) int {
	code := 0
	for _, w := range m.Workloads {
		cmd := exec.Command(os.Args[0], append([]string{"-workload", w.Name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "irbench: workload %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// runOne sets one workload up, warms it up with one discarded repetition,
// and measures it for the given number of seconds.
func runOne(m *manifest, root string, w *workload, seed int64, seconds float64, traced bool, out string) (*result, error) {
	begin := time.Now()
	var why string
	for _, d := range m.Workloads {
		if d.Name == w.Name {
			why = d.Why
		}
	}
	if why == "" {
		return nil, fmt.Errorf("workload %s is not in %s", w.Name, manifestName)
	}
	// Scratch lives under the output directory: the benchmark writes only
	// inside its checkout.
	scratch, err := os.MkdirTemp(out, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	g := &gate{}
	var e *env
	var setups []float64
	for i := 0; i < setupAttempts; i++ {
		if e != nil {
			e.close()
		}
		t0 := time.Now()
		if e, err = setup(w, seed, scratch, g); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer e.close()
	t0 := time.Now()
	e.repetition(samples{}) // warm-up: caches fill, lazy set-up finishes
	warmup := time.Since(t0).Seconds()

	r := &result{Workload: w.Name, Why: why, Traced: traced, Provenance: stamp(root, seed, seconds)}
	budget := time.Duration(seconds * float64(time.Second))
	s := samples{}
	defs := m.EndToEnd
	if traced {
		defs = m.PerLayer
		rec := obs.NewRecorder(spanCap)
		rootSpan := rec.Start(w.Name)
		r.Reps = measure(budget, 1, func() {
			u := e.repetition(samples{})
			t := e.tracedRepetition(s, rootSpan, rec)
			if u.total() > 0 && t.total() > 0 {
				s.add("bench.trace_overhead", float64(t.total())/float64(u.total()))
			}
		})
		rootSpan.End()
		if err := writeChromeTrace(filepath.Join(out, w.Name+".trace.json"), rec); err != nil {
			return nil, err
		}
		r.Metrics = collect(defs, w.Name, s, nil)
	} else {
		r.Reps = measure(budget, minReps, func() { e.repetition(s) })
		setup := summarize(setups)
		setup.Median += warmup
		setup.Q1 += warmup
		setup.Q3 += warmup
		extra := map[string]summary{"setup_s": setup}
		if rss, err := peakRSSMiB(); g.op("read peak RSS", err) {
			extra["peak_rss_mb"] = summary{Median: rss, Q1: rss, Q3: rss, N: 1}
		}
		if pool := s[servedLatencies]; len(pool) > 0 {
			extra["served_job_p50_ms"] = pooledPercentile(pool, 50, r.Reps)
			extra["served_job_p95_ms"] = pooledPercentile(pool, 95, r.Reps)
		}
		r.Metrics = collect(defs, w.Name, s, extra)
	}
	for _, d := range defs {
		if _, ok := r.metric(d.Name); !ok {
			g.op("metric "+d.Name, fmt.Errorf("no sample"))
		}
	}
	r.Samples = s
	r.Attempted, r.Failed, r.Errors = g.attempted, g.failed, g.errs
	r.WallS = time.Since(begin).Seconds()
	return r, nil
}
