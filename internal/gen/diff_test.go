package gen

import (
	"strings"
	"testing"

	"repro/internal/hostrace"
)

// TestDifferentialRaceFree sweeps a small race-free seed batch through
// the full pipeline — whole replay, segment stitching, analyzers,
// compaction, flight spill — and expects silence. This is
// the in-tree slice of what CI's fuzz-smoke job runs at larger scale.
func TestDifferentialRaceFree(t *testing.T) {
	if testing.Short() {
		t.Skip("full differential pipeline")
	}
	b := Batch{Seeds: 6, Workers: 2, NoShrink: true}
	if failures := b.Run(); len(failures) != 0 {
		for _, f := range failures {
			t.Errorf("%s", f.String())
		}
	}
}

// TestDifferentialRacy: a planted-race generation must replay identically
// (the race is on dead data), and the analyzers must name exactly the
// planted pair.
//
//ir:racy generated programs race on VM memory by design
func TestDifferentialRacy(t *testing.T) {
	if hostrace.Enabled {
		t.Skip("racy generations are genuine host-level races")
	}
	if testing.Short() {
		t.Skip("full differential pipeline")
	}
	var cfg Config
	for seed := int64(0); seed < 3; seed++ {
		p := Generate(seed, ModeRacy)
		if err := cfg.Check(p); err != nil {
			t.Errorf("seed %d: %v\n%s", seed, err, p)
		}
	}
}

// TestTamperTeeth: the oracle must catch a deliberately corrupted
// recording within the first handful of seeds — a harness that passes
// tampered traces would wave through real regressions too. This is the
// acceptance check for "an intentionally-injected stitch bug is caught
// within 50 seeds".
func TestTamperTeeth(t *testing.T) {
	if testing.Short() {
		t.Skip("runs diverging replays")
	}
	modes := map[string]Tamper{
		"output":     TamperOutput,
		"order":      TamperOrder,
		"drop-epoch": TamperDropEpoch,
	}
	for name, mode := range modes {
		mode := mode
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Tamper: mode, MaxReplays: 2}
			for seed := int64(0); seed < 50; seed++ {
				p := Generate(seed, ModeRaceFree)
				err := cfg.Check(p)
				if err == nil {
					t.Fatalf("seed %d: tampered trace passed every check", seed)
				}
				if strings.Contains(err.Error(), "tamper:") {
					// This seed's recording had nothing to corrupt (e.g. no
					// contended lock order); try the next one.
					continue
				}
				t.Logf("caught at seed %d: %v", seed, err)
				return
			}
			t.Fatalf("no seed in [0,50) produced a corruptible recording")
		})
	}
}

// TestFailureReport: a failing seed's report carries the seed and a
// parseable minimized spec — everything needed to reproduce and check in
// a regression.
func TestFailureReport(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the differential pipeline")
	}
	f := CheckSeed(0, ModeRaceFree, Config{Tamper: TamperOutput, MaxReplays: 2}, false)
	if f == nil {
		t.Fatal("tampered check reported success")
	}
	s := f.String()
	if !strings.Contains(s, "seed 0") || !strings.Contains(s, specMagic) {
		t.Errorf("report lacks seed or spec:\n%s", s)
	}
	min := f.Min
	if min == nil {
		t.Fatal("no minimized witness")
	}
	if _, err := Parse(min.Marshal()); err != nil {
		t.Errorf("minimized spec does not parse back: %v", err)
	}
	if min.Ops() > 20 {
		t.Errorf("minimized witness still has %d ops:\n%s", min.Ops(), min)
	}
}
