package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/tir"
	"repro/internal/workloads"
)

// corpusTrace is one registered program the daemon side of a workload
// serves. The daemon rebuilds modules from registered application names, so
// it cannot serve the custom specs below; each workload instead seeds its
// daemon store with the registered applications of the same shape.
type corpusTrace struct {
	App             string
	EventCap        int
	CheckpointEvery int
}

// corpusScale shrinks every corpus program's iteration count, so a daemon
// job takes tens of milliseconds.
const corpusScale = 0.3

// workload is one benchmark input: a program shape run through the library
// pipeline (baseline, record, in-situ replay, offline replay and analysis,
// whole and segmented) and, as registered programs of the same shape,
// through the trace service daemon. BENCHMARK.json carries the one-line
// reason each exists; benchmarks/README.md the long one.
//
// Iters is sized so the slowest single operation (the in-situ run) takes a
// few hundred milliseconds on a 2-core host: the benchmark contract allows
// roughly 30 s per run, set-up and build included, and asks for every metric
// from every workload. That is well below the sizes the design started from
// (3500, 3000, 14000 and 8000 iterations); the phase slice (phaseSlice)
// repeats cheap operations instead, so each is sampled as long as the
// expensive ones.
type workload struct {
	Name string
	Spec workloads.Spec
	// CheckpointEvery is the record phase's checkpoint cadence (0: none, so
	// the segmented phases see a single whole-trace segment).
	CheckpointEvery int
	Corpus          []corpusTrace
	// Jobs is the daemon round's job count; the mix is fixed (jobMix).
	Jobs int
}

// leaks is the leak analyzer's pinned finding count: each worker's
// never-freed working set plus the 32-byte result block it publishes.
func (w *workload) leaks() int { return 2 * w.Spec.Threads }

var allWorkloads = []workload{
	{
		// fluidanimate shape: ~120 events per iteration, ~8 trace bytes per
		// event; interception, list appends and epoch encode/decode do the
		// work, the interpreter little.
		Name: "lock-storm",
		Spec: workloads.Spec{Name: "lock-storm", Threads: 2, Iters: 600, WorkingSet: 80 << 10,
			CPUBranchy: 60, Locks: 60, LockStride: 16, WritesPerLock: 1},
		Corpus: []corpusTrace{{App: "fluidanimate"}},
		Jobs:   30,
	},
	{
		// x264/swaptions shape: ~2 events per iteration in one epoch, so
		// interpreter dispatch is nearly all of every phase.
		Name: "compute-loop",
		Spec: workloads.Spec{Name: "compute-loop", Threads: 2, Iters: 600, WorkingSet: 90 << 10,
			CPUBranchy: 4000, CPUFloat: 2000, Locks: 1, LockStride: 1, WritesPerLock: 1},
		Corpus: []corpusTrace{{App: "swaptions"}},
		Jobs:   30,
	},
	{
		// dedup+pfscan+memcached shape: payload-carrying syscall events
		// (~96 trace bytes per event), allocator churn, the leak analyzer.
		Name: "alloc-io",
		Spec: workloads.Spec{Name: "alloc-io", Threads: 2, Iters: 3000, WorkingSet: 300 << 10,
			CPUBranchy: 200, Allocs: 24, AllocSize: 256, Locks: 2, LockStride: 2, WritesPerLock: 2,
			LibraryWork: 512, FileIO: 1024, SocketIO: 512, TimeCalls: 1},
		Corpus: []corpusTrace{{App: "dedup"}, {App: "pfscan"}},
		Jobs:   30,
	},
	{
		// CPU-bound checkpointed recording: a checkpoint frame at every
		// epoch, no sleeps, so the segmented numbers measure compute.
		Name: "ckpt-segments",
		Spec: workloads.Spec{Name: "ckpt-segments", Threads: 2, Iters: 2400, WorkingSet: 256 << 10,
			CPUBranchy: 300, Locks: 8, LockStride: 4, WritesPerLock: 2, Allocs: 4, AllocSize: 128},
		CheckpointEvery: 1,
		Corpus:          []corpusTrace{{App: "streamcluster", EventCap: 24, CheckpointEvery: 2}},
		Jobs:            30,
	},
	{
		// The daemon's yardstick: a large round over four traces, with a
		// small blend of the three program shapes as its library program.
		Name: "served-mix",
		Spec: workloads.Spec{Name: "served-mix", Threads: 2, Iters: 500, WorkingSet: 128 << 10,
			CPUBranchy: 150, Locks: 12, LockStride: 8, WritesPerLock: 1, Allocs: 6, AllocSize: 192,
			FileIO: 512, SocketIO: 256, TimeCalls: 1},
		CheckpointEvery: 2,
		Corpus: []corpusTrace{
			{App: "fluidanimate"},
			{App: "dedup"},
			{App: "pfscan"},
			{App: "streamcluster", EventCap: 24, CheckpointEvery: 2},
		},
		Jobs: 40,
	},
}

func workloadByName(name string) *workload {
	for i := range allWorkloads {
		if allWorkloads[i].Name == name {
			return &allWorkloads[i]
		}
	}
	return nil
}

// hostWorkers is the pool and client count every parallel phase uses:
// min(nproc, 4), so the load fits a shared 2-core host and is the same
// number whatever GOMAXPROCS says.
func hostWorkers() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// gate counts operations attempted and failed. A failed check is a failed
// operation; its phase contributes no sample, so a wrong answer can never be
// reported as a speed.
type gate struct {
	mu        sync.Mutex
	attempted int
	failed    int
	errs      []string
}

// op counts one operation and reports whether it succeeded.
func (g *gate) op(what string, err error) bool {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.attempted++
	if err == nil {
		return true
	}
	g.failed++
	if len(g.errs) < 20 {
		g.errs = append(g.errs, what+": "+err.Error())
	}
	return false
}

// env is one workload's prepared state: its module, its library store
// directory and its daemon.
type env struct {
	w       *workload
	seed    int64
	workers int
	slice   time.Duration // how long each phase of a repetition lasts at least
	dir     string        // scratch root, removed by close
	libDir  string        // the library phases' trace store
	mod     *tir.Module
	hash    uint64
	g       *gate
	daemon  *daemon
}

// setup builds everything a repetition needs under a fresh scratch
// directory: the module and its fingerprint, the library store directory,
// and the daemon over a store seeded with the workload's corpus.
func setup(w *workload, seed int64, scratch string, g *gate) (*env, error) {
	dir, err := os.MkdirTemp(scratch, w.Name+"-")
	if err != nil {
		return nil, err
	}
	e := &env{w: w, seed: seed, workers: hostWorkers(), slice: phaseSlice, dir: dir, libDir: filepath.Join(dir, "lib"), g: g}
	if e.mod, err = w.Spec.Build(); err != nil {
		e.close()
		return nil, err
	}
	e.hash = tir.Fingerprint(e.mod)
	if e.daemon, err = startDaemon(w, seed, filepath.Join(dir, "served"), e.workers); err != nil {
		e.close()
		return nil, fmt.Errorf("daemon set-up: %w", err)
	}
	return e, nil
}

func (e *env) close() {
	if e.daemon != nil {
		e.daemon.close()
	}
	os.RemoveAll(e.dir)
}
