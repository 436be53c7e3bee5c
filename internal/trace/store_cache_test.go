package trace

// Tests for the bounded frame-granular decode cache: budget enforcement,
// LRU eviction order, the always-cache-the-working-frame guarantee, and
// the hit/miss counters the daemon's /metrics endpoint reports. The unit
// of caching is one decoded epoch or checkpoint frame, costed at its
// decoded size — never the file size.

import (
	"testing"

	"repro/internal/record"
)

// cacheTestTrace builds a small but non-trivial encodable one-epoch trace.
func cacheTestTrace(seed int64) *Trace {
	ep := &record.EpochLog{
		Epoch:  1,
		Reason: 3, // StopProgramEnd
		Threads: []record.ThreadLog{{
			TID: 0, EntryFn: 0,
			Events: []record.Event{
				{Kind: record.KMutexLock, Var: 0x1000, Pos: 0},
				{Kind: record.KMutexLock, Var: 0x1000, Pos: 1},
				{Kind: record.KExit, Ret: uint64(seed), Pos: -1},
			},
		}},
		Vars: []record.VarLog{{Addr: 0x1000, Order: []int32{0, 0}}},
	}
	return &Trace{
		Header:  Header{App: "cache-test", ModuleHash: uint64(seed) + 1, Seed: seed},
		Epochs:  []*record.EpochLog{ep},
		Summary: &Summary{Exit: uint64(seed)},
	}
}

// commitTrace encodes tr into the store under name the way every recorder
// writes one: Create, stream the bytes, Commit (which replaces any previous
// trace of that name and invalidates its cached frames).
func commitTrace(t testing.TB, st *Store, name string, tr *Trace) {
	t.Helper()
	b, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	p, err := st.Create(name)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Abort()
	if _, err := p.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Commit(); err != nil {
		t.Fatal(err)
	}
}

func seedCacheStore(t *testing.T, n int) *Store {
	t.Helper()
	st, err := OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		commitTrace(t, st, names[i], cacheTestTrace(int64(i)))
	}
	return st
}

var names = []string{"a", "b", "c", "d"}

// frameCost returns what one cached epoch of the fixture costs.
func frameCost(t *testing.T) int64 {
	t.Helper()
	return epochCost(cacheTestTrace(0).Epochs[0])
}

func TestStoreCacheHitsAndMisses(t *testing.T) {
	st := seedCacheStore(t, 2)
	if _, err := st.Load("a"); err != nil {
		t.Fatal(err)
	}
	tr1, err := st.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	tr2, err := st.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	if tr1.Epochs[0] != tr2.Epochs[0] {
		t.Fatal("repeated Load did not serve the cached epoch decode")
	}
	stats := st.Stats()
	// One epoch frame per load: 1 miss on the first, a hit on each rerun.
	if stats.Hits != 2 || stats.Misses != 1 || stats.CachedFrames != 1 {
		t.Fatalf("stats after 3 loads of one trace: %+v", stats)
	}
	if r := stats.HitRate(); r < 0.66 || r > 0.67 {
		t.Fatalf("hit rate %v, want 2/3", r)
	}
	if stats.CachedBytes != frameCost(t) {
		t.Fatalf("cache cost %d, want the decoded epoch's cost %d", stats.CachedBytes, frameCost(t))
	}

	// Committing a replacement invalidates without counting as an eviction.
	commitTrace(t, st, "a", cacheTestTrace(10))
	if stats := st.Stats(); stats.CachedFrames != 0 || stats.Evictions != 0 {
		t.Fatalf("stats after invalidating commit: %+v", stats)
	}
	tr3, err := st.Load("a")
	if err != nil {
		t.Fatal(err)
	}
	if tr3.Epochs[0] == tr1.Epochs[0] {
		t.Fatal("Load after a replacing commit served the stale decode")
	}
}

func TestStoreCacheLRUEviction(t *testing.T) {
	st := seedCacheStore(t, 4)
	cost := frameCost(t)

	// Budget for exactly two cached epoch frames.
	st.SetCacheLimit(2 * cost)
	for _, n := range []string{"a", "b"} {
		if _, err := st.Load(n); err != nil {
			t.Fatal(err)
		}
	}
	// Touch "a" so "b" is the LRU victim when "c" arrives.
	if _, err := st.Load("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("c"); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.CachedFrames != 2 || stats.Evictions != 1 {
		t.Fatalf("stats after first eviction: %+v", stats)
	}
	if stats.CachedBytes > stats.LimitBytes {
		t.Fatalf("cache over budget: %+v", stats)
	}
	// "a" must still be cached (a hit), "b" must re-decode (a miss).
	base := stats
	if _, err := st.Load("a"); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Hits != base.Hits+1 {
		t.Fatalf("touched entry was evicted: %+v", got)
	}
	if _, err := st.Load("b"); err != nil {
		t.Fatal(err)
	}
	if got := st.Stats(); got.Misses != base.Misses+1 {
		t.Fatalf("LRU victim still cached: %+v", got)
	}
}

func TestStoreCacheKeepsWorkingFrame(t *testing.T) {
	st := seedCacheStore(t, 1)
	// A budget smaller than one frame still caches the frame being decoded —
	// the fan-out case must never decode per replay.
	st.SetCacheLimit(1)
	if _, err := st.Load("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load("a"); err != nil {
		t.Fatal(err)
	}
	stats := st.Stats()
	if stats.CachedFrames != 1 || stats.Hits != 1 {
		t.Fatalf("undersized budget evicted the working frame: %+v", stats)
	}
}

func TestStoreCacheDisabled(t *testing.T) {
	st := seedCacheStore(t, 1)
	st.SetCacheLimit(0)
	for i := 0; i < 2; i++ {
		if _, err := st.Load("a"); err != nil {
			t.Fatal(err)
		}
	}
	stats := st.Stats()
	if stats.CachedFrames != 0 || stats.Hits != 0 || stats.Misses != 2 {
		t.Fatalf("disabled cache stats: %+v", stats)
	}

	// Shrinking the limit evicts the overflow from an enabled cache too.
	st.SetCacheLimit(DefaultCacheBytes)
	if _, err := st.Load("a"); err != nil {
		t.Fatal(err)
	}
	st.SetCacheLimit(1) // below the frame cost: evicts the entry
	if got := st.Stats(); got.CachedFrames != 0 {
		t.Fatalf("SetCacheLimit did not shrink the cache: %+v", got)
	}
}
