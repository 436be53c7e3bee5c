package trace

import (
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/mem"
)

// TestReplaySteadyStateAllocation: the executor releases every runtime it
// builds, so once the first replay of a trace has filled the address-space
// free list, repeating it allocates less than one default address space —
// whole (ReplayBatch) and segment-parallel (ReplaySegments) alike. Without
// recycling each replay allocates at least one 21 MiB space per segment.
func TestReplaySteadyStateAllocation(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.5)
	opts := core.Options{Seed: 9, EventCap: 24}
	tr := recordCheckpointed(t, spec, opts, 2)
	if len(tr.Checkpoints) < 2 {
		t.Fatalf("want a trace of >= 3 segments, got %d checkpoints", len(tr.Checkpoints))
	}
	job := segmentJob(t, spec, tr, opts)
	cfg := mem.DefaultConfig()
	space := uint64(cfg.GlobalSize + cfg.HeapSize + cfg.StackSlot*int64(cfg.MaxThreads))

	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"ReplayBatch", func() error {
			res, _ := ReplayBatch([]Job{job}, 1)
			return res[0].Err
		}},
		{"ReplaySegments", func() error {
			_, _, err := ReplaySegments(job, 0)
			return err
		}},
	} {
		if err := tc.run(); err != nil {
			t.Fatalf("%s warm-up: %v", tc.name, err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := tc.run()
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if d := after.TotalAlloc - before.TotalAlloc; d >= space {
			t.Errorf("%s: a repeated replay allocated %d bytes, want < one %d-byte address space", tc.name, d, space)
		}
	}
}
