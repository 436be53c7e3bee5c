package trace

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// TestEpochRangeBoundaries pins Handle.Epochs at its edges — single-epoch
// ranges at the first, middle, and last epoch, the full range — and the
// distinct diagnostics for inverted and uncovered requests. Segment replay
// planning leans on exactly these cases when it carves checkpoint windows.
func TestEpochRangeBoundaries(t *testing.T) {
	spec := scaledSpec(t, "streamcluster", 0.5)
	tr := recordCheckpointed(t, spec, core.Options{Seed: 9, EventCap: 24}, 2)
	h := OpenTrace(tr)

	lo, hi := h.EpochRange()
	if lo != 1 {
		t.Fatalf("EpochRange lo = %d, want 1 (epochs are 1-based)", lo)
	}
	if hi < lo+2 {
		t.Fatalf("trace too short for boundary cases: [%d,%d]", lo, hi)
	}

	// lo==hi: exactly one epoch decodes, and it is the requested one.
	for _, seq := range []int64{lo, (lo + hi) / 2, hi} {
		eps, err := h.Epochs(seq, seq)
		if err != nil {
			t.Fatalf("Epochs(%d,%d): %v", seq, seq, err)
		}
		if len(eps) != 1 || eps[0].Epoch != seq {
			t.Fatalf("Epochs(%d,%d) returned %d epochs, first seq %d",
				seq, seq, len(eps), eps[0].Epoch)
		}
	}

	// The full range decodes every epoch, in sequence order, and agrees
	// with the whole-trace decode.
	eps, err := h.Epochs(lo, hi)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(eps)) != hi-lo+1 {
		t.Fatalf("Epochs(%d,%d) = %d epochs, want %d", lo, hi, len(eps), hi-lo+1)
	}
	for i, ep := range eps {
		if ep.Epoch != lo+int64(i) {
			t.Fatalf("epoch %d out of order: seq %d", i, ep.Epoch)
		}
	}
	all, err := h.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if len(all.Epochs) != len(eps) {
		t.Fatalf("Trace = %d epochs, Epochs(%d,%d) = %d", len(all.Epochs), lo, hi, len(eps))
	}

	// Requests past either end fail with the coverage diagnostic; an
	// inverted range is rejected before any index lookup.
	for _, r := range [][2]int64{{lo, hi + 1}, {hi + 1, hi + 1}, {lo - 1, hi}, {0, 0}} {
		if _, err := h.Epochs(r[0], r[1]); err == nil || !strings.Contains(err.Error(), "not covered") {
			t.Errorf("Epochs(%d,%d) err = %v, want coverage error", r[0], r[1], err)
		}
	}
	if _, err := h.Epochs(hi, lo); err == nil || !strings.Contains(err.Error(), "empty epoch range") {
		t.Errorf("Epochs(%d,%d) err = %v, want empty-range error", hi, lo, err)
	}
}
