package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"text/tabwriter"
)

// provenance stamps a result with what it was measured on. Two results
// with different nproc or seed are not comparable: the first changes what
// the parallel phases can do, the second the inputs.
type provenance struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
}

func stamp(root string, seed int64, seconds float64) provenance {
	commit := "unknown" // a bare checkout is not a git repository
	if out, err := exec.Command("git", "-C", root, "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return provenance{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commit, Seed: seed, Seconds: seconds,
	}
}

// measured is one metric of one workload: its definition from the manifest
// and its distribution over the run's repetitions.
type measured struct {
	metricDef
	summary
	// Focus marks the pairings the metric is judged on (see focus).
	Focus bool `json:"focus"`
}

// result is one run of one workload, as written to benchmarks/out.
type result struct {
	Workload   string     `json:"workload"`
	Why        string     `json:"why"`
	Traced     bool       `json:"traced"`
	Provenance provenance `json:"provenance"`
	// Reps counts timed repetitions; WallS is the whole process, set-up
	// included.
	Reps      int        `json:"repetitions"`
	WallS     float64    `json:"wall_s"`
	Attempted int        `json:"attempted"`
	Failed    int        `json:"failed"`
	Errors    []string   `json:"errors,omitempty"`
	Metrics   []measured `json:"metrics"`
	// Samples are the per-repetition values behind the summaries.
	Samples samples `json:"samples"`
}

func (r *result) metric(name string) (measured, bool) {
	for _, m := range r.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return measured{}, false
}

// peakRSSMiB is the process's resident-set high-water mark.
func peakRSSMiB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscan(rest, &kb); err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not in /proc/self/status")
}

// pooledPercentile summarizes a percentile read from samples pooled across
// repetitions: the value is the pool's percentile and N its size; the
// quartiles, which a single pooled number does not have, are those of the
// same percentile taken chunk by chunk (one chunk per repetition).
func pooledPercentile(pool []float64, p float64, chunks int) summary {
	s := summary{Median: percentile(pool, p), N: len(pool)}
	var per []float64
	for c := 0; c < chunks; c++ {
		lo, hi := c*len(pool)/chunks, (c+1)*len(pool)/chunks
		if hi > lo {
			per = append(per, percentile(pool[lo:hi], p))
		}
	}
	s.Q1, s.Q3 = quartiles(per)
	return s
}

// collect turns a run's samples into the manifest's metric list. A metric
// with no sample (its phase failed every time) is left out; the gate has
// already counted the failures.
func collect(defs []metricDef, workload string, s samples, extra map[string]summary) []measured {
	var out []measured
	for _, d := range defs {
		sum, ok := extra[d.Name]
		if !ok {
			if len(s[d.Name]) == 0 {
				continue
			}
			sum = summarize(s[d.Name])
		}
		out = append(out, measured{metricDef: d, summary: sum, Focus: inFocus(d.Name, workload)})
	}
	return out
}

// print writes the human-readable table: every metric by name with unit,
// direction, regression bound, median, quartiles and sample count.
func (r *result) print(w io.Writer) {
	kind := "end-to-end (untraced run)"
	if r.Traced {
		kind = "per-layer (traced run)"
	}
	fmt.Fprintf(w, "\n%s — %s\n  %s\n", r.Workload, kind, r.Why)
	p := r.Provenance
	fmt.Fprintf(w, "  nproc %d, GOMAXPROCS %d, %s, commit %s, seed %d, %d repetitions in %.1f s (budget %.0f s)\n",
		p.NProc, p.GOMAXPROCS, p.GoVersion, p.Commit, p.Seed, r.Reps, r.WallS, p.Seconds)
	tw := tabwriter.NewWriter(w, 2, 8, 2, ' ', 0)
	fmt.Fprintln(tw, "  metric\tunit\tbetter\tbound\tmedian\tq1\tq3\tn\t")
	for _, m := range r.Metrics {
		bound, mark := "-", ""
		if m.Bound > 0 {
			bound = fmt.Sprintf("%.0f%%", m.Bound*100)
		}
		if !m.Focus {
			mark = "(context)"
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\t%.6g\t%.6g\t%.6g\t%d\t%s\n",
			m.Name, m.Unit, m.Better, bound, m.Median, m.Q1, m.Q3, m.N, mark)
	}
	tw.Flush()
	if m, ok := r.metric("served_job_p95_ms"); ok && highestPercentile(m.N) < 95 {
		fmt.Fprintf(w, "  note: served_job_p95_ms has fewer than ten of its %d samples beyond it; the highest resolved percentile is p%g\n",
			m.N, highestPercentile(m.N))
	}
	fmt.Fprintf(w, "  operations: %d attempted, %d failed\n", r.Attempted, r.Failed)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "  FAILED %s\n", e)
	}
}

// contractLine is the benchmark contract's result object: the last line of
// standard output.
func (r *result) contractLine() string {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: r.Failed == 0, Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]value{}}
	for _, m := range r.Metrics {
		line.Metrics[m.Name] = value{Value: m.Median, Unit: m.Unit}
	}
	b, _ := json.Marshal(line) // plain numbers and strings cannot fail to encode
	return string(b)
}

func (r *result) fileName() string {
	if r.Traced {
		return r.Workload + ".layers.json"
	}
	return r.Workload + ".json"
}

func (r *result) write(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, r.fileName()), append(b, '\n'), 0o644)
}

func readResult(path string) (*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}
