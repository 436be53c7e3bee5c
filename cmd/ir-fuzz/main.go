// Command ir-fuzz sweeps generated workloads through the differential
// replay-identity harness (internal/gen): each seed deterministically
// draws a small multithreaded program, records it, and checks whole-trace
// replay identity, segment stitching, analyzer ground truth, and identity
// across compaction and a flight-ring spill.
//
//	ir-fuzz -seeds 200 -workers 4            # CI-style batch, race-free
//	ir-fuzz -seeds 500 -racy-every 4         # every 4th seed plants a race
//	ir-fuzz -seed 1234567                    # reproduce one failing seed
//	ir-fuzz -spec min.genspec                # re-run a checked-in spec
//	ir-fuzz -selftest                        # prove the oracle has teeth
//
// A failure prints the seed and the minimized spec (greedy op-deletion
// shrinker); exit status is 1 when any seed fails, 2 on usage errors.
// Racy generations are genuine data races on VM memory by design — keep
// -racy-every 0 (the default) for host-race-safe runs; see docs/TESTING.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/gen"
)

func main() {
	seeds := flag.Int("seeds", 50, "number of consecutive seeds to sweep")
	start := flag.Int64("start", 0, "first seed of the sweep")
	oneSeed := flag.Int64("seed", -1, "check a single seed and exit (overrides -seeds/-start)")
	spec := flag.String("spec", "", "check a .genspec file instead of generated seeds")
	workers := flag.Int("workers", 0, "parallel seeds (0 = GOMAXPROCS)")
	racyEvery := flag.Int("racy-every", 0, "plant a race in every Nth seed (0 = race-free only, host-race-safe)")
	eventCap := flag.Int("eventcap", 0, "recording event cap per thread (0 = harness default)")
	noShrink := flag.Bool("no-shrink", false, "skip failure minimization")
	selftest := flag.Bool("selftest", false, "tamper recorded traces and verify the oracle catches each mode")
	verbose := flag.Bool("v", false, "progress output")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintln(os.Stderr, "usage: ir-fuzz [-seeds N] [-start S] [-seed N] [-spec FILE] [-workers N] [-racy-every N] [-selftest]")
		os.Exit(2)
	}

	cfg := gen.Config{EventCap: *eventCap}

	switch {
	case *selftest:
		os.Exit(runSelftest(cfg))
	case *spec != "":
		os.Exit(runSpec(cfg, *spec))
	case *oneSeed >= 0:
		mode := gen.ModeRaceFree
		if *racyEvery > 0 {
			mode = gen.ModeRacy
		}
		f := gen.CheckSeed(*oneSeed, mode, cfg, *noShrink)
		if f != nil {
			fmt.Printf("FAIL %s\n", f)
			os.Exit(1)
		}
		fmt.Printf("seed %d ok\n", *oneSeed)
		return
	}

	b := gen.Batch{
		Config:    cfg,
		Start:     *start,
		Seeds:     *seeds,
		Workers:   *workers,
		RacyEvery: *racyEvery,
		NoShrink:  *noShrink,
	}
	if *verbose {
		b.Progress = func(done, failed int) {
			if done%10 == 0 || done == *seeds {
				fmt.Printf("%d/%d seeds, %d failures\n", done, *seeds, failed)
			}
		}
	}
	failures := b.Run()
	for i := range failures {
		fmt.Printf("FAIL %s\n", &failures[i])
	}
	if len(failures) > 0 {
		fmt.Printf("%d/%d seeds failed\n", len(failures), *seeds)
		os.Exit(1)
	}
	fmt.Printf("%d seeds ok (start %d, racy-every %d)\n", *seeds, *start, *racyEvery)
}

// runSpec re-checks one .genspec file — the reproduce-a-regression path.
func runSpec(cfg gen.Config, path string) int {
	data, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ir-fuzz: %v\n", err)
		return 2
	}
	p, err := gen.Parse(data)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ir-fuzz: %s: %v\n", path, err)
		return 2
	}
	if err := cfg.Check(p); err != nil {
		fmt.Printf("FAIL %s: %v\n", path, err)
		return 1
	}
	fmt.Printf("%s ok\n", path)
	return 0
}

// runSelftest corrupts recorded traces in each supported way and demands
// the harness notice every one — the "oracle has teeth" proof from the
// test suite, runnable standalone.
func runSelftest(cfg gen.Config) int {
	modes := []struct {
		name string
		t    gen.Tamper
	}{
		{"output", gen.TamperOutput},
		{"order", gen.TamperOrder},
		{"drop-epoch", gen.TamperDropEpoch},
	}
	code := 0
	for _, m := range modes {
		c := cfg
		c.Tamper = m.t
		c.MaxReplays = 2
		caught := false
		for seed := int64(0); seed < 50 && !caught; seed++ {
			err := c.Check(gen.Generate(seed, gen.ModeRaceFree))
			switch {
			case err == nil:
				fmt.Printf("FAIL selftest %s: tampered seed %d passed every check\n", m.name, seed)
				code = 1
				caught = true
			case strings.Contains(err.Error(), "tamper:"):
				// This seed's trace was too small to corrupt this way; try the next.
			default:
				fmt.Printf("selftest %s: caught at seed %d: %v\n", m.name, seed, err)
				caught = true
			}
		}
		if !caught {
			fmt.Printf("FAIL selftest %s: no corruptible seed found in 50\n", m.name)
			code = 1
		}
	}
	return code
}
