package fleet

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"uniserver/internal/core"
)

// singleflightDeadline bounds the in-test waits that prove
// concurrency properties: a cache that serializes where it must not
// (or duplicates where it must not) fails by timing out here rather
// than deadlocking the suite.
const singleflightDeadline = 30 * time.Second

// TestCharactCacheCoalescing proves the per-key singleflight: N
// goroutines missing the same key concurrently run exactly ONE
// characterization — the other N−1 coalesce onto the in-flight run
// and are served its result. The characterizing callback refuses to
// finish until the cache has counted all N−1 coalesced waiters, so
// the assertion cannot pass by accident of scheduling (e.g. the N−1
// arriving after the entry completed, which would be plain hits).
func TestCharactCacheCoalescing(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real characterizations; skipping in -short")
	}
	for _, n := range []int{1, 4, 8} {
		t.Run(fmt.Sprintf("goroutines=%d", n), func(t *testing.T) {
			cache := NewCharactCache()
			spec := DefaultConfig(1).BaseSpec()
			seed := NodeSeed(7, 0)
			key := charactKey(seed, spec, false)
			inner := charactBuilder(spec, seed)
			characterize := func(out io.Writer) (*core.Ecosystem, core.PreDeploymentReport, error) {
				deadline := time.Now().Add(singleflightDeadline)
				for cache.Stats().Coalesced < uint64(n-1) {
					if time.Now().After(deadline) {
						t.Errorf("only %d of %d waiters coalesced onto the in-flight characterization",
							cache.Stats().Coalesced, n-1)
						break
					}
					time.Sleep(time.Millisecond)
				}
				return inner(out)
			}
			var wg sync.WaitGroup
			snaps := make([]*core.Snapshot, n)
			for g := 0; g < n; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					snap, _, _, err := cache.characterized(key, false, characterize)
					if err != nil {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					snaps[g] = snap
				}()
			}
			wg.Wait()
			st := cache.Stats()
			if st.Misses != 1 {
				t.Errorf("want exactly 1 characterization, got %d", st.Misses)
			}
			if st.Hits != uint64(n-1) {
				t.Errorf("want %d hits, got %d", n-1, st.Hits)
			}
			if st.Coalesced != uint64(n-1) {
				t.Errorf("want %d coalesced, got %d", n-1, st.Coalesced)
			}
			for g, snap := range snaps {
				if snap != snaps[0] {
					t.Errorf("goroutine %d was served a different entry", g)
				}
			}
		})
	}
}

// TestCharactCacheDistinctKeysParallel proves misses on distinct keys
// characterize in parallel: every callback blocks until all K are
// simultaneously in flight, which can only happen if no global lock
// serializes them. Under the old single-mutex cache this test times
// out — one characterization at a time, the rest queued on the lock.
func TestCharactCacheDistinctKeysParallel(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real characterizations; skipping in -short")
	}
	for _, k := range []int{4, 8} {
		t.Run(fmt.Sprintf("keys=%d", k), func(t *testing.T) {
			cache := NewCharactCache()
			spec := DefaultConfig(1).BaseSpec()
			var inflight atomic.Int32
			allIn := make(chan struct{})
			var wg sync.WaitGroup
			for g := 0; g < k; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					seed := NodeSeed(11, g) // distinct seeds → distinct keys
					inner := charactBuilder(spec, seed)
					characterize := func(out io.Writer) (*core.Ecosystem, core.PreDeploymentReport, error) {
						if inflight.Add(1) == int32(k) {
							close(allIn)
						}
						select {
						case <-allIn:
						case <-time.After(singleflightDeadline):
							t.Errorf("characterizations serialized: only %d of %d keys in flight together",
								inflight.Load(), k)
						}
						return inner(out)
					}
					if _, _, _, err := cache.characterized(charactKey(seed, spec, false), false, characterize); err != nil {
						t.Errorf("key %d: %v", g, err)
					}
				}()
			}
			wg.Wait()
			st := cache.Stats()
			if st.Misses != uint64(k) || st.Hits != 0 || st.Coalesced != 0 {
				t.Errorf("want %d misses / 0 hits / 0 coalesced, got %d / %d / %d",
					k, st.Misses, st.Hits, st.Coalesced)
			}
		})
	}
}

// TestFleetArchetypeSingleflight pins the singleflight cache at the
// fleet level: an archetype run whose nodes all share one bin must
// characterize exactly once at any worker count — duplicate concurrent
// misses coalesce rather than redundantly characterizing — and the
// fleet fingerprint must be byte-identical across worker counts, i.e.
// who wins the race to populate the entry is unobservable.
func TestFleetArchetypeSingleflight(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet characterization is slow; skipping in -short")
	}
	const nodes = 8
	var baseline string
	for _, workers := range []int{1, 4, 8} {
		cache := NewCharactCache()
		cfg := DefaultConfig(nodes)
		cfg.Workers = workers
		cfg.Windows = 10
		cfg.Seed = 7
		cfg.Archetypes = true
		cfg.Charact = cache
		sum, err := Run(cfg)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		st := cache.Stats()
		if st.Misses != 1 {
			t.Errorf("workers=%d: want 1 characterization for the single bin, got %d", workers, st.Misses)
		}
		if st.Hits != nodes-1 {
			t.Errorf("workers=%d: want %d hits, got %d", workers, nodes-1, st.Hits)
		}
		if workers == 1 && st.Coalesced != 0 {
			t.Errorf("workers=1: sequential run cannot coalesce, got %d", st.Coalesced)
		}
		if baseline == "" {
			baseline = sum.Fingerprint()
		} else if sum.Fingerprint() != baseline {
			t.Errorf("workers=%d: fingerprint diverged from the 1-worker run", workers)
		}
	}
}
