package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"uniserver/internal/core"
	"uniserver/internal/fleet"
	"uniserver/internal/resultstore"
	"uniserver/internal/scenario"
)

// env is what every workload receives: the workload seed, the worker
// count (the host's CPU count — no more goroutine workers, cells in
// flight or client connections than that), and the directory inside
// the checkout the benchmark may write to.
type env struct {
	seed    uint64
	workers int
	workdir string
}

// passOut is one untraced pass: the timed call(s) and everything the
// benchmark reads off their outputs.
type passOut struct {
	wall        time.Duration
	cells       int
	nodeWindows int64
	// latMS holds one latency per request in milliseconds; kinds, when
	// set, labels each.
	latMS []float64
	kinds []string
	// fingerprint is the sha256 the pass's outputs hash to; it is
	// compared with the pinned value and across passes.
	fingerprint string
	// cellFPs maps a cell (scenario and seed) to its fingerprint
	// sha256, for the traced run's reproduction check.
	cellFPs map[string]string
	ops     tally
	cache   fleet.CacheStats
	store   resultstore.Stats
}

// runner is a set-up workload, ready for its timed call.
type runner interface {
	run() (passOut, error)
	close()
}

// tracedOut is one traced pass.
type tracedOut struct {
	rec  *recorder
	wall time.Duration
	// lanes is how many goroutines recorded work concurrently.
	lanes int
	// denom, when non-zero, is the request time layer shares are taken
	// of; zero means the sum of all recorded self time.
	denom time.Duration
	// cache replaces the untraced pass's cache counters when the
	// untraced pass cannot observe them (the served workload).
	cache *fleet.CacheStats
	// overheadWall, when set, is the traced wall to compare with the
	// untraced pass for trace.overhead_frac (the served workload's
	// direct-Submit phase); otherwise wall is.
	overheadWall time.Duration
	// entryBytes is the total size of the snapshots the pass saved.
	entryBytes float64
	// mismatches counts outputs the traced pass failed to reproduce.
	mismatches int
	// extra holds workload-specific figures for the report lines.
	extra []string
}

type benchWorkload struct {
	name   string
	setup  func(env) (runner, error)
	traced func(env, passOut) (tracedOut, error)
	// own names the layers the workload was chosen to exercise; the
	// traced run reports whether together they hold the largest
	// self-time share.
	own []string
}

var workloads = []benchWorkload{
	{
		name:   "fleet-archetype",
		setup:  setupFleet(archetypeScenario),
		traced: tracedFleet(archetypeScenario),
		own:    []string{"core.stamp"},
	},
	{
		name:   "fleet-longhaul",
		setup:  setupFleet(longhaulScenario),
		traced: tracedFleet(longhaulScenario),
		own:    []string{"core.step", "openstack.replay"},
	},
	{
		name:   "campaign-grid",
		setup:  setupGrid,
		traced: tracedGrid,
		own:    []string{"core.characterize"},
	},
	{
		name:   "served-campaign",
		setup:  setupServed,
		traced: tracedServed,
		// campaignd.share is a residual (Submit time no span covers), so
		// it is left out: the verdict rests on timed spans alone.
		own: []string{"core.characterize", "core.fast_forward", "core.recharacterize", "resultstore"},
	},
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func sha256Hex(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:])
}

// Workload sizes. They were chosen so that one pass takes at most a
// few host seconds on a 2-vCPU machine and so that each workload's own
// layer has the largest self-time share in the traced run (see
// README.md). The grid keeps 4 seeds: at 8 its characterization cache
// peaked at 745 MiB and its pass rate varied twice as much from pass
// to pass.
const (
	archetypeNodes   = 8000
	archetypeWindows = 30

	longhaulNodes   = 64
	longhaulWindows = 16000

	gridSeeds   = 4
	gridNodes   = 4
	gridWindows = 16
)

// archetypeScenario is the fleet-100k preset scaled down: 2 archetype
// bins, 8 shards. Presets are resolved by name, as the CLI does.
func archetypeScenario() (scenario.Scenario, error) {
	s, err := scenario.ByName("fleet-100k")
	return s.Scale(archetypeNodes, archetypeWindows), err
}

// longhaulScenario is thermal-summer with archetype characterization,
// few nodes and a long window axis.
func longhaulScenario() (scenario.Scenario, error) {
	s, err := scenario.ByName("thermal-summer")
	s.Archetypes = true
	return s.Scale(longhaulNodes, longhaulWindows), err
}

// fleetConfig resolves a fleet workload's scenario into its config.
func fleetConfig(scen func() (scenario.Scenario, error), seed uint64) (fleet.Config, error) {
	s, err := scen()
	if err != nil {
		return fleet.Config{}, err
	}
	return s.FleetConfig(seed)
}

type fleetRunner struct {
	cfg fleet.Config
}

func setupFleet(scen func() (scenario.Scenario, error)) func(env) (runner, error) {
	return func(e env) (runner, error) {
		cfg, err := fleetConfig(scen, e.seed)
		if err != nil {
			return nil, err
		}
		cfg.Workers = e.workers
		return &fleetRunner{cfg: cfg}, nil
	}
}

func (r *fleetRunner) run() (passOut, error) {
	cfg := r.cfg
	// The cache fleet.Run would create for an archetype run, supplied
	// so its counters can be read.
	cache := fleet.NewCharactCache()
	cfg.Charact = cache
	start := time.Now()
	sum, err := fleet.Run(cfg)
	wall := time.Since(start)
	out := passOut{wall: wall, cells: 1, latMS: []float64{ms(wall)}, cache: cache.Stats()}
	if err != nil {
		out.ops.add(opErrored)
		return out, err
	}
	out.ops.add(opOK)
	out.nodeWindows = int64(sum.Nodes) * int64(sum.Windows)
	out.fingerprint = sha256Hex(sum.Fingerprint())
	return out, nil
}

func (r *fleetRunner) close() {}

func tracedFleet(scen func() (scenario.Scenario, error)) func(env, passOut) (tracedOut, error) {
	return func(e env, untraced passOut) (tracedOut, error) {
		cfg, err := fleetConfig(scen, e.seed)
		if err != nil {
			return tracedOut{}, err
		}
		rec := newRecorder()
		start := time.Now()
		sum, err := traceFleet(cfg, newCharactCache(nil), newLanes(rec, e.workers))
		out := tracedOut{rec: rec, wall: time.Since(start), lanes: e.workers}
		if err != nil {
			return out, err
		}
		if got := sha256Hex(sum.Fingerprint()); got != untraced.fingerprint {
			out.mismatches++
		}
		return out, nil
	}
}

// gridScenarios are the six classic presets at the BenchmarkCampaign
// cell shape.
func gridScenarios() ([]scenario.Scenario, error) {
	names := []string{"baseline", "diurnal-burst", "hetero-bins", "thermal-summer", "mode-churn", "droop-attack"}
	out := make([]scenario.Scenario, len(names))
	for i, n := range names {
		s, err := scenario.ByName(n)
		if err != nil {
			return nil, err
		}
		out[i] = s.Scale(gridNodes, gridWindows)
	}
	return out, nil
}

// gridSeedList derives the grid's campaign seeds from the workload
// seed; distinct workload seeds give disjoint seed lists.
func gridSeedList(seed uint64) []uint64 {
	seeds := make([]uint64, gridSeeds)
	for k := range seeds {
		seeds[k] = seed*gridSeeds + uint64(k)
	}
	return seeds
}

func cellName(scen string, seed uint64) string { return fmt.Sprintf("%s.%d", scen, seed) }

type gridRunner struct {
	camp scenario.Campaign
}

func setupGrid(e env) (runner, error) {
	scens, err := gridScenarios()
	if err != nil {
		return nil, err
	}
	camp := scenario.Campaign{Scenarios: scens, Seeds: gridSeedList(e.seed), Parallel: e.workers}
	for _, s := range camp.Scenarios {
		if err := s.Validate(); err != nil {
			return nil, err
		}
	}
	return &gridRunner{camp: camp}, nil
}

func (r *gridRunner) run() (passOut, error) {
	start := time.Now()
	rep, err := scenario.RunCampaign(r.camp)
	wall := time.Since(start)
	out := passOut{
		wall: wall, latMS: []float64{ms(wall)}, fingerprint: rep.FingerprintSHA256,
		cellFPs: make(map[string]string, len(rep.Results)),
		cache: fleet.CacheStats{
			Hits: rep.CharactCacheHits, Misses: rep.CharactCacheMisses, Coalesced: rep.CharactCoalesced,
			DiskHits: rep.CharactDiskHits, Compiled: rep.CharactCompiled,
		},
	}
	for _, res := range rep.Results {
		if res.Err != "" {
			out.ops.add(opErrored)
			continue
		}
		out.ops.add(opOK)
		out.cells++
		out.nodeWindows += int64(res.Summary.Nodes) * int64(res.Summary.Windows)
		out.cellFPs[cellName(res.Scenario, res.Seed)] = res.FingerprintSHA256
	}
	if err != nil && out.ops.failed() == 0 {
		out.ops.add(opErrored)
	}
	return out, err
}

func (r *gridRunner) close() {}

// tracedGrid walks the grid cell by cell, Parallel cells at a time in
// grid order like RunCampaign, each cell on one lane with one shared
// characterization cache.
func tracedGrid(e env, untraced passOut) (tracedOut, error) {
	scens, err := gridScenarios()
	if err != nil {
		return tracedOut{}, err
	}
	seeds := gridSeedList(e.seed)
	rec := newRecorder()
	lanes := newLanes(rec, e.workers)
	cache := newCharactCache(nil)
	type cell struct {
		name string
		sha  string
		err  error
	}
	cells := make([]cell, len(scens)*len(seeds))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for k := range lanes {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(cells) {
					return
				}
				s, seed := scens[i/len(seeds)], seeds[i%len(seeds)]
				c := &cells[i]
				c.name = cellName(s.Name, seed)
				cfg, err := s.FleetConfig(seed)
				if err != nil {
					c.err = err
					continue
				}
				// Each cell is its own fleet.Run, whose worker starts
				// with a new restore arena.
				sum, err := traceFleet(cfg, cache, []lane{{t: lanes[k].t, arena: core.NewRestoreArena()}})
				if err != nil {
					c.err = err
					continue
				}
				c.sha = sha256Hex(sum.Fingerprint())
			}
		}()
	}
	wg.Wait()
	out := tracedOut{rec: rec, wall: time.Since(start), lanes: len(lanes)}
	for _, c := range cells {
		if c.err != nil {
			return out, fmt.Errorf("%s: %w", c.name, c.err)
		}
		if untraced.cellFPs[c.name] != c.sha {
			out.mismatches++
		}
	}
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
