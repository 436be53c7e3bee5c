package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// manifestName is the benchmark's contract file at the repository root. It
// is the single catalog of workload and metric names, units, directions and
// regression bounds: irbench reads it at start-up and refuses to report a
// metric it does not list, so the numbers printed and the numbers later
// changes are judged by cannot drift apart.
const manifestName = "BENCHMARK.json"

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifest struct {
	Command    []string      `json:"command"`
	Paths      []string      `json:"paths"`
	RunSeconds int           `json:"run_seconds"`
	Workloads  []workloadDef `json:"workloads"`
	EndToEnd   []metricDef   `json:"end_to_end"`
	PerLayer   []metricDef   `json:"per_layer"`
}

// loadManifest finds BENCHMARK.json in the working directory or the nearest
// parent holding one (tests run from the package directory) and returns it
// with the directory it was found in — the checkout root every output path
// is relative to.
func loadManifest() (*manifest, string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, "", err
	}
	for {
		b, err := os.ReadFile(filepath.Join(dir, manifestName))
		if err == nil {
			var m manifest
			if err := json.Unmarshal(b, &m); err != nil {
				return nil, "", fmt.Errorf("%s: %w", manifestName, err)
			}
			return &m, dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, "", fmt.Errorf("%s not found in the working directory or any parent", manifestName)
		}
		dir = parent
	}
}

// focus lists, per end-to-end metric, the workloads it is judged on: the
// pairings a change is expected to move. Every workload measures every
// metric (the benchmark contract wants each run to report all of them), but
// off-focus rows — a single-segment "segment replay" of an un-checkpointed
// trace, the small daemon round a library workload runs — are context, not
// claims. A metric absent here is in focus everywhere.
var focus = map[string][]string{
	"record_overhead":              {"lock-storm", "compute-loop", "alloc-io", "ckpt-segments"},
	"record_events_per_s":          {"lock-storm", "compute-loop", "alloc-io", "ckpt-segments"},
	"insitu_replay_events_per_s":   {"lock-storm", "compute-loop", "alloc-io"},
	"replay_events_per_s":          {"lock-storm", "compute-loop", "alloc-io", "ckpt-segments"},
	"analyze_events_per_s":         {"lock-storm", "compute-loop", "alloc-io", "ckpt-segments"},
	"segment_replay_events_per_s":  {"ckpt-segments"},
	"segment_analyze_events_per_s": {"ckpt-segments"},
	"coldstart_segment_ms":         {"ckpt-segments"},
	"trace_bytes_per_event":        {"lock-storm", "compute-loop", "alloc-io", "ckpt-segments"},
	"served_events_per_s":          {"served-mix"},
	"served_job_p50_ms":            {"served-mix"},
	"served_job_p95_ms":            {"served-mix"},
}

func inFocus(metric, workload string) bool {
	ws, ok := focus[metric]
	if !ok {
		return true
	}
	for _, w := range ws {
		if w == workload {
			return true
		}
	}
	return false
}
