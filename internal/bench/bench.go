// Package bench regenerates the paper's evaluation: Table 1 (memory
// difference between original execution and re-execution), Table 2
// (Crasher race-reproduction attempts), Table 3 (recording overhead of
// IR-Alloc / iReplayer normalized to the default runtime), and Figure 5
// (iReplayer with and without its detectors), plus the §5.4.1
// detection-effectiveness table. The paper's CLAP, RR and AddressSanitizer
// columns are the paper's own measurements; this repo does not emulate them.
//
// Absolute times come from this substrate, not the paper's Xeon testbed;
// the comparisons of interest against the published numbers are the
// normalized ratios and their shape.
package bench

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/detect"
	"repro/internal/workloads"
)

// System identifies one execution configuration of Table 3 / Figure 5.
type System int

const (
	// SysBaseline is the default runtime: no recording, libc-like allocator
	// (the normalization denominator).
	SysBaseline System = iota
	// SysIRAlloc is the deterministic allocator alone, no recording
	// ("IR-Alloc" column).
	SysIRAlloc
	// SysIReplayer is full recording ("iReplayer" column).
	SysIReplayer
	// SysIRDetect is iReplayer with both detectors enabled
	// ("iReplayer(OF+DP)" in Figure 5).
	SysIRDetect
)

var sysNames = map[System]string{
	SysBaseline: "baseline", SysIRAlloc: "IR-Alloc", SysIReplayer: "iReplayer",
	SysIRDetect: "iReplayer(OF+DP)",
}

func (s System) String() string { return sysNames[s] }

// RunOnce executes spec once under sys and returns the wall-clock time.
func RunOnce(spec workloads.Spec, sys System, seed int64) (time.Duration, error) {
	mod, err := spec.Build()
	if err != nil {
		return 0, err
	}
	opts := core.Options{Seed: seed}
	var d *detect.Detector
	switch sys {
	case SysBaseline:
		opts.DisableRecording = true
		opts.UseLibCAllocator = true
		opts.ASLRSeed = seed
	case SysIRAlloc:
		opts.DisableRecording = true
	case SysIRDetect:
		d = detect.New(detect.Config{Overflow: true, UseAfterFree: true})
		opts = d.Options()
		opts.Seed = seed
	}
	rt, err := core.New(mod, opts)
	if err != nil {
		return 0, err
	}
	if d != nil {
		if err := d.Attach(rt); err != nil {
			return 0, err
		}
	}
	spec.SetupOS(rt.OS())
	start := time.Now()
	_, err = rt.Run()
	wall := time.Since(start)
	rt.Release()
	return wall, err
}

// Normalized runs spec `rounds` times under sys and baseline and returns the
// median-of-rounds ratio sys/baseline — one Table 3 cell. Every system shares
// the baseline's concurrent runtime, so numerator and denominator see the
// host's parallelism identically.
func Normalized(spec workloads.Spec, sys System, rounds int) (float64, error) {
	base, err := median(spec, SysBaseline, rounds)
	if err != nil {
		return 0, err
	}
	d, err := median(spec, sys, rounds)
	if err != nil {
		return 0, err
	}
	if base <= 0 {
		return 0, fmt.Errorf("bench: degenerate baseline time")
	}
	return float64(d) / float64(base), nil
}

func median(spec workloads.Spec, sys System, rounds int) (time.Duration, error) {
	if rounds < 1 {
		rounds = 1
	}
	times := make([]time.Duration, 0, rounds)
	for i := 0; i < rounds; i++ {
		d, err := RunOnce(spec, sys, int64(i)*977+13)
		if err != nil {
			return 0, fmt.Errorf("%s under %s: %w", spec.Name, sys, err)
		}
		times = append(times, d)
	}
	for i := 1; i < len(times); i++ {
		for j := i; j > 0 && times[j] < times[j-1]; j-- {
			times[j], times[j-1] = times[j-1], times[j]
		}
	}
	return times[len(times)/2], nil
}
