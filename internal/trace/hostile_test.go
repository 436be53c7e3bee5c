package trace

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestEntryPointsAgreeBesideHogs runs the executor's agreement check — whole,
// batch and segmented replay and analysis of checkpointed, suffix and plain
// traces — on two Ps beside two goroutines that never yield theirs. Every
// entry point must still match at the first attempt: the runtime's quiescence
// is counted, so a woken thread the host has not scheduled yet is never read
// as a stalled replay. The other hostile scheduler, one P, is CI's
// `GOMAXPROCS=1 go test` step over this whole package.
func TestEntryPointsAgreeBesideHogs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
			}
		}()
	}
	defer wg.Wait()
	defer stop.Store(true)
	TestEntryPointsAgree(t)
}
