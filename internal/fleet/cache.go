package fleet

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"sync"
	"sync/atomic"

	"uniserver/internal/core"
	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/rng"
)

// CharactCache memoizes pre-deployment characterization results by
// (node seed, characterization-relevant NodeSpec): the first consumer
// of a key pays the full core.New + PreDeployment cost and publishes a
// core.Snapshot image; every later consumer — typically the same node
// index in another campaign cell — stamps an independent ecosystem
// from it in microseconds instead of re-running the multi-second
// campaign. This
// is the biggest campaign-cost multiplier: a scenario×seed grid
// re-characterized each seed's spec set once per scenario.
//
// The cache is safe for concurrent use from any number of fleet runs,
// and it is contention-free by construction: entries live in a
// sync.Map (hits never take a lock), and each entry is a per-key
// singleflight — the first arrival characterizes, duplicate arrivals
// on the same in-flight key coalesce onto that one run (counted in
// Stats.Coalesced) instead of duplicating it, and misses on distinct
// keys characterize fully in parallel. Disk-spill I/O happens after
// the entry publishes, so coalesced waiters are released while the
// characterizing goroutine is still writing the spill file. Because
// characterization is a pure function of the key — the excluded spec
// fields only shape what happens after the restore — results are
// byte-identical no matter which consumer populates an entry first, at
// any worker count or campaign parallelism: who computes a key is
// unobservable in the results.
type CharactCache struct {
	// entries maps key → *charactEntry. A sync.Map instead of a
	// mutex-guarded map because the steady state of a campaign is
	// read-mostly (every node of every cell probes the cache; only the
	// first consumer per key writes), which is exactly the sync.Map
	// sweet spot — the hot hit path is lock-free.
	entries sync.Map

	// dir, when non-empty, roots the on-disk spill (diskcache.go):
	// characterized snapshots persist across processes, and keys not
	// yet seen in memory are first sought on disk. Held in an
	// atomic.Value so worker goroutines never contend on a lock just
	// to learn whether spilling is enabled.
	dir atomic.Value // string

	// diskErr retains the first best-effort spill failure for the CLI
	// to surface; its mutex is touched only on the (rare) error path.
	diskErrMu sync.Mutex
	diskErr   error

	hits, misses, coalesced, diskHits, compiled atomic.Uint64
}

// charactEntry is one key's singleflight slot. The creating goroutine
// writes the result fields and then closes done; everyone else waits
// on done and reads the fields afterwards (the channel close is the
// happens-before edge). Fields are read-only once done is closed.
type charactEntry struct {
	done chan struct{}
	// snap is the key's characterization image: published once by the
	// entry's creator before done closes, then shared read-only by
	// every consumer — the stamp path takes zero lock acquisitions on
	// shared state.
	snap *core.Snapshot
	pre  core.PreDeploymentReport
	log  []byte
	err  error
}

// NewCharactCache returns an empty cache.
func NewCharactCache() *CharactCache {
	return &CharactCache{}
}

// CacheStats counts cache outcomes: a miss is a characterization
// actually run, a hit is a node served from an in-memory image,
// and a disk hit is a key's first consumer served from the attached
// spill directory instead of re-running the campaign. Coalesced is
// the subset of hits that arrived while the key's characterization
// was still in flight and blocked on it instead of duplicating it.
// Hits, misses and disk hits are deterministic functions of the run
// (misses = distinct keys characterized); Coalesced depends on
// goroutine timing and is execution telemetry, like wall-clock.
type CacheStats struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced,omitempty"`
	DiskHits  uint64 `json:"disk_hits,omitempty"`
	// Compiled counts characterization images published (one per
	// successfully characterized entry, whether it came from a fresh
	// run or the disk spill) — the cost amortized across every stamp.
	Compiled uint64 `json:"compiled,omitempty"`
}

// Stats returns the cache's hit/miss/coalesced counters.
func (c *CharactCache) Stats() CacheStats {
	return CacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
		DiskHits:  c.diskHits.Load(),
		Compiled:  c.compiled.Load(),
	}
}

// entry returns key's singleflight slot and whether this caller
// created it (and therefore owns running the characterization).
func (c *CharactCache) entry(key string) (*charactEntry, bool) {
	if v, ok := c.entries.Load(key); ok {
		return v.(*charactEntry), false
	}
	v, loaded := c.entries.LoadOrStore(key, &charactEntry{done: make(chan struct{})})
	return v.(*charactEntry), !loaded
}

// characterized returns the image, characterization report and
// captured health-log bytes for key, invoking characterize at most
// once per key across all goroutines: the entry's creator runs it,
// duplicate concurrent arrivals coalesce onto the in-flight run, and
// later arrivals are plain hits. When wantLog is set the
// characterization writes its health log into a cache-owned buffer
// whose bytes every consumer replays into its own node log — the
// lines are identical to what a fresh characterization would have
// written, because characterization is deterministic in the key.
func (c *CharactCache) characterized(key string, wantLog bool,
	characterize func(out io.Writer) (*core.Ecosystem, core.PreDeploymentReport, error),
) (*core.Snapshot, core.PreDeploymentReport, []byte, error) {
	e, creator := c.entry(key)
	if !creator {
		// Served from the cache. Distinguish a completed entry (plain
		// hit) from an in-flight one (coalesced: we block on the single
		// characterization instead of running our own). The distinction
		// is timing-dependent telemetry; the total hit count is not.
		select {
		case <-e.done:
		default:
			c.coalesced.Add(1)
			<-e.done
		}
		c.hits.Add(1)
		return e.snap, e.pre, e.log, e.err
	}

	// This goroutine owns the key's one characterization. The attached
	// spill directory serves a key's first consumer in this process
	// when another process already characterized it; anything
	// unreadable falls through to a fresh run.
	fromDisk := false
	if c.spillDir() != "" {
		if snap, pre, log, ok := c.loadDisk(key); ok {
			fromDisk = true
			e.snap, e.pre, e.log = snap, pre, log
		}
	}
	if !fromDisk {
		var buf *bytes.Buffer
		var out io.Writer
		if wantLog {
			buf = &bytes.Buffer{}
			out = buf
		}
		eco, pre, err := characterize(out)
		if err == nil {
			var snap *core.Snapshot
			snap, err = eco.Snapshot()
			if err == nil {
				e.snap, e.pre = snap, pre
				if buf != nil {
					e.log = buf.Bytes()
				}
			}
		}
		e.err = err
	}
	if e.err == nil {
		c.compiled.Add(1)
	}
	// Publish before spilling: closing done releases every coalesced
	// waiter — the close is the happens-before edge that makes e.snap
	// visible, after which stamping is lock-free and shared read-only —
	// so the disk write below happens outside the key's critical
	// section: waiters stamp the image while the creator is still
	// persisting the entry.
	close(e.done)
	if fromDisk {
		c.diskHits.Add(1)
	} else {
		c.misses.Add(1)
		if e.err == nil && c.spillDir() != "" {
			c.spillDisk(key, e.snap, e.pre, e.log)
		}
	}
	return e.snap, e.pre, e.log, e.err
}

// ArchetypeBin canonically renders the characterization identity of a
// NodeSpec: every field PreDeployment actually reads — the silicon
// part (with its full process corner) and the DRAM configuration
// (whose initial temperature the retention pattern tests consult) —
// and nothing else. Mode, risk target, workload, schedulable memory
// and the ambient temperatures are deliberately excluded: they only
// shape the deployment that runs after the restore (mode entry
// re-derives the operating point from the restored table, and the
// restore re-seats the thermal nodes), so specs differing only in those
// deployment-phase fields land in the same bin. A zero Part is
// canonicalized to the part DefaultOptions resolves it to, so
// explicit-default and implicit-default specs collide.
//
// The same string serves two consumers: charactKey scopes it by node
// seed for the per-node snapshot cache, and archetype-clone
// characterization (Config.Archetypes) uses it seedless, as the bin
// identity all same-spec nodes share. The %+v renderings are
// deterministic (the structs contain no maps) and intentionally
// field-exhaustive: a field added to PartSpec, Process or dram.Config
// changes the bin and conservatively splits the cache rather than
// silently sharing across a difference.
func ArchetypeBin(spec NodeSpec) string {
	part := spec.Part
	if part.Cores == 0 {
		part = core.DefaultOptions().Part
	}
	return fmt.Sprintf("part=%+v mem=%+v", part, spec.Mem)
}

// ArchetypeSeed derives the characterization seed of an archetype bin
// from the fleet seed — the bin-level analogue of NodeSeed, and like
// it a pure function, so which node first characterizes a bin can
// never matter.
func ArchetypeSeed(seed uint64, bin string) uint64 {
	return rng.New(seed).SplitLabeled("fleet/archetype/" + bin).Uint64()
}

// charactKey scopes a characterization identity by the seed that
// drives it (the node seed on the per-node path, the bin seed under
// Config.Archetypes). wantLog is part of the key because log bytes are
// captured only when a health log was requested.
func charactKey(seed uint64, spec NodeSpec, wantLog bool) string {
	return fmt.Sprintf("seed=%d log=%t %s", seed, wantLog, ArchetypeBin(spec))
}

// archetypeKeys is one worker's memo of resolved archetype identities
// for one Run. Resolving a bin renders ArchetypeBin twice and hashes a
// labeled split (ArchetypeSeed, charactKey); in a population-scale
// fleet every node of a bin would re-derive the same three values. The
// memo is worker-owned, so lookups take no lock, and it dies with the
// Run. Every entry is computed by the fmt path itself, so a lookup
// returns exactly what that path returns for the spec.
type archetypeKeys map[binIdentity]archetypeKey

// archetypeKey is a resolved bin: its characterization seed and the
// cache key charactKey scopes by that seed.
type archetypeKey struct {
	seed uint64
	key  string
}

// binIdentity is the comparable form of what an archetype key depends
// on: the spec fields ArchetypeBin renders, the fleet seed and the log
// flag. Floats are held by bit pattern and zeroed in the embedded
// structs, because == on float64 merges -0 with 0 (which %v renders
// differently) and never matches a NaN. Bit equality is at least as
// strict as equal renderings, so two specs share an entry only when
// the fmt path would give them the same key.
type binIdentity struct {
	part      cpu.PartSpec
	mem       dram.Config
	floats    [12]uint64
	fleetSeed uint64
	wantLog   bool
}

func identityOf(fleetSeed uint64, spec NodeSpec, wantLog bool) binIdentity {
	id := binIdentity{part: spec.Part, mem: spec.Mem, fleetSeed: fleetSeed, wantLog: wantLog}
	p := &id.part
	for i, f := range [...]*float64{
		&p.Proc.VthMV, &p.Proc.SlopeMVPerGHz, &p.Proc.D2DSigmaMV, &p.Proc.WIDSigmaMV,
		&p.Proc.DroopPctTypical, &p.Proc.DroopPctWorst,
		&p.DroopMinMV, &p.DroopMaxMV, &p.ECCOnsetMeanMV, &p.ECCOnsetSigmaMV, &p.RunNoiseMV,
		&id.mem.TempC,
	} {
		id.floats[i] = math.Float64bits(*f)
		*f = 0
	}
	return id
}

// resolve returns the archetype seed and characterization cache key of
// spec's bin, exactly as ArchetypeSeed(fleetSeed, ArchetypeBin(spec))
// and charactKey give them, computing each distinct bin once.
func (m archetypeKeys) resolve(fleetSeed uint64, spec NodeSpec, wantLog bool) archetypeKey {
	id := identityOf(fleetSeed, spec, wantLog)
	if k, ok := m[id]; ok {
		return k
	}
	seed := ArchetypeSeed(fleetSeed, ArchetypeBin(spec))
	k := archetypeKey{seed: seed, key: charactKey(seed, spec, wantLog)}
	m[id] = k
	return k
}
