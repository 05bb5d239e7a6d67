package core

import (
	"fmt"
	"io"

	"uniserver/internal/rng"
	"uniserver/internal/telemetry"
	"uniserver/internal/thermal"
)

// Snapshot is an independent copy of a characterized ecosystem:
// the CPU and silicon state (per-core margins, aging drift), the DRAM
// weak-cell population with VRT telegraph states, the published EOP
// table, the StressLog history and virus archive, the HealthLog's
// retained vectors and rolling error windows, the hypervisor's object
// inventory, placements and pinning, the thermal nodes, and — the part
// that makes byte-identical restoration possible — the exact positions
// of every labeled RNG stream and the simulated clock.
//
// The intended use is checkpoint/restore of pre-deployment
// characterization (the gem5-style trick): run core.New +
// PreDeployment once per distinct (seed, part, memory) configuration,
// Snapshot the result, and Restore a fresh ecosystem per consumer
// instead of re-running the multi-second campaign. Restores are fully
// independent of each other and of the snapshot source: the only state
// they share is immutable (the fabricated DRAM weak-cell populations
// and the hypervisor object inventory), so restored ecosystems can be
// stepped concurrently.
//
// Take the snapshot when the thermal state is re-derivable from
// ambient: after PreDeployment and before the first runtime window,
// or — since the lifetime engine — on an epoch boundary right after a
// fast-forward gap, which re-seats the thermal nodes at ambient
// exactly as Restore does. In both positions a restored ecosystem is
// indistinguishable, stream for stream and byte for byte, from its
// source (pass the source's current ambient in RestoreOptions for
// mid-life snapshots). Snapshotting mid-epoch would lose the
// accumulated die/DIMM temperatures, so Snapshot refuses it with an
// error rather than corrupting restores silently.
type Snapshot struct {
	proto *Ecosystem
}

// Snapshot captures the ecosystem's current state. The capture is
// itself an independent copy, so the live ecosystem can keep running (or be
// discarded) without disturbing later Restores. It returns an error
// when runtime windows have run and the ecosystem is not on an epoch
// boundary: Restore re-derives the thermal nodes from ambient, which
// is exact only where the thermal state already sits at ambient.
func (e *Ecosystem) Snapshot() (*Snapshot, error) {
	if e.windowsRun > 0 && !e.atEpochBoundary {
		return nil, fmt.Errorf("core: snapshot after %d runtime windows is unsupported mid-epoch (thermal state would be lost on restore); snapshot before the first window or on a fast-forward epoch boundary", e.windowsRun)
	}
	proto, err := e.clone(nil)
	if err != nil {
		return nil, fmt.Errorf("core: snapshot: %w", err)
	}
	return &Snapshot{proto: proto}, nil
}

// RestoreOptions rebind the per-node surfaces a restored ecosystem
// must not share with its snapshot siblings.
type RestoreOptions struct {
	// HealthLogOut receives the restored ecosystem's JSON-lines health
	// log from here on; nil discards. Lines recorded before the
	// snapshot were written to the original's writer and are not
	// replayed (the fleet cache captures and replays them itself).
	HealthLogOut io.Writer
	// AmbientCPUC and AmbientDIMMC re-seat the thermal nodes, with
	// exactly the Options semantics: zero means the defaults (28 and
	// 34 °C). This is what lets cells that differ only in environment
	// share one characterization — pre-deployment never touches the
	// thermal state, so re-seating reproduces core.New verbatim.
	AmbientCPUC  float64
	AmbientDIMMC float64
}

// Restore materializes an independent ecosystem from the snapshot.
// Every restore is a fresh copy: restores never share mutable state
// with each other or with the snapshot.
func (s *Snapshot) Restore(opts RestoreOptions) (*Ecosystem, error) {
	c, err := s.proto.clone(opts.HealthLogOut)
	if err != nil {
		return nil, fmt.Errorf("core: restore: %w", err)
	}
	ambCPU, ambDIMM := opts.AmbientCPUC, opts.AmbientDIMMC
	if ambCPU == 0 {
		ambCPU = 28
	}
	if ambDIMM == 0 {
		ambDIMM = 34
	}
	c.opts.AmbientCPUC, c.opts.AmbientDIMMC = ambCPU, ambDIMM
	c.cpuTherm = thermal.CPUNode(ambCPU)
	c.memTherm = thermal.DIMMNode(ambDIMM)
	return c, nil
}

// Reseed re-keys the ecosystem's runtime-facing random streams to a
// fresh seed — the archetype-clone hook. A fleet that characterizes
// one ecosystem per silicon/DRAM bin Restores a deep copy per node
// and Reseeds each copy with the node's own seed, so everything the
// deployment draws from here on — per-window core sampling, DRAM
// retention windows, fast-forward telegraph draws, re-characterization
// campaigns, machine measurement noise — diverges per node while the
// characterized state (published EOP table, weak-cell population,
// trained predictor, protected objects) stays the bin's.
//
// The main stream is repositioned at exactly the state a fresh
// New(seed) ecosystem carries into deployment: construction and
// PreDeployment consume only labeled child streams, never the main
// stream, so rng.New(seed) is that state verbatim. The machine's
// measurement stream moves to a labeled split of the same seed
// ("machine/runtime" — a label no construction-time consumer uses),
// repositioned in place so the StressLog daemon's machine reference
// observes it too. Like Snapshot, reseeding is only exact where no
// mid-epoch runtime state could alias the old streams: before the
// first window or on an epoch boundary.
func (e *Ecosystem) Reseed(seed uint64) error {
	if e.windowsRun > 0 && !e.atEpochBoundary {
		return fmt.Errorf("core: reseed after %d runtime windows is unsupported mid-epoch; reseed before the first window or on a fast-forward epoch boundary", e.windowsRun)
	}
	e.opts.Seed = seed
	e.src = rng.New(seed)
	e.Machine.ReseedStream(rng.New(seed).SplitLabeled("machine/runtime").State())
	return nil
}

// clone copies the ecosystem, directing future health-log lines to
// out. The ownership rules (see DESIGN.md "Snapshot ownership"):
//
//   - Deep-copied: the rng stream positions and the clock; the machine
//     (silicon margins, aging, measurement stream); the memory system's
//     domains, DIMMs, refresh intervals and VRT state bits; the
//     HealthLog's retained history and counters; the StressLog's
//     schedule, history and virus archive; the hypervisor (guests,
//     pins, placements, isolation, counters, category profiles); the
//     predictor model and the published EOP table.
//   - Re-derived, exactly as New would: the HealthLog→StressLog
//     trigger wiring, the advisor (rebound to the cloned model and
//     table), the per-window scratch (component names, DRAM hit map,
//     core resolver), and — in Restore — the thermal nodes.
//   - Shared, immutable: each DIMM's fabricated weak-cell population
//     and VRT index, and the hypervisor's object inventory. Neither is
//     ever written in place after it is built: weak cells are only
//     appended (dram.DIMM.Grow) through cap-limited views that
//     reallocate on their first append, and protection labels change
//     only by copying the inventory (hypervisor.ObjectMap.Protect). The
//     other aliases are immutable values (strings, specs, model
//     parameters by value).
func (e *Ecosystem) clone(out io.Writer) (*Ecosystem, error) {
	opts := e.opts
	opts.HealthLogOut = out

	clock := telemetry.NewClock(e.Clock.Now())
	machine := e.Machine.Clone()
	mem := e.Mem.Clone()
	health := e.Health.Clone(clock, out)
	stressd := e.Stress.Clone(clock, machine, mem, health)
	health.OnStressTrigger(stressd.TriggerHandler())
	hyp, err := e.Hypervisor.Clone(mem)
	if err != nil {
		return nil, err
	}
	src := *e.src
	model := *e.Model

	c := &Ecosystem{
		Clock:      clock,
		Machine:    machine,
		Mem:        mem,
		Health:     health,
		Stress:     stressd,
		Model:      &model,
		Hypervisor: hyp,

		opts:             opts,
		src:              &src,
		power:            e.power,
		refresh:          e.refresh,
		mode:             e.mode,
		weakGrowthPerDay: e.weakGrowthPerDay,
		cpuTherm:         &thermal.Node{},
		memTherm:         &thermal.Node{},
		trip:             e.trip,
		worstComp:        e.worstComp,
		worstMargin:      e.worstMargin,
		windowsRun:       e.windowsRun,
		atEpochBoundary:  e.atEpochBoundary,
		dramHits:         make(map[string]int),
	}
	*c.cpuTherm = *e.cpuTherm
	*c.memTherm = *e.memTherm
	if e.table != nil {
		c.table = e.table.Clone()
	}
	if e.advisor != nil {
		adv := *e.advisor
		adv.Model = c.Model
		adv.Table = c.table
		c.advisor = &adv
	}
	c.coreNames = make([]string, opts.Part.Cores)
	for i := range c.coreNames {
		c.coreNames[i] = fmt.Sprintf("%s/core%d", opts.Part.Model, i)
	}
	c.coreOf = func(string) int { return c.curCore }
	return c, nil
}
