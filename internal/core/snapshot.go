package core

import (
	"fmt"
	"io"
	"time"

	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/healthlog"
	"uniserver/internal/hypervisor"
	"uniserver/internal/predictor"
	"uniserver/internal/rng"
	"uniserver/internal/silicon"
	"uniserver/internal/stresslog"
	"uniserver/internal/vfr"
)

// Snapshot is the characterization image: the one frozen form of a
// characterized ecosystem, compiled straight from the live graph. It
// holds the CPU and silicon state (a chip copy with per-core margins
// and aging drift, the measurement-stream position), the DRAM image
// (weak-cell populations and VRT telegraph states), the published EOP
// table, the StressLog history and virus archive, the HealthLog's
// retained vectors and rolling error windows, the hypervisor image
// (object inventory, placements, guests, pinning), the predictor, and
// — the part that makes byte-identical restoration possible — the
// exact positions of every labeled RNG stream and the simulated clock.
//
// The intended use is checkpoint/restore of pre-deployment
// characterization (the gem5-style trick): run core.New +
// PreDeployment once per distinct (seed, part, memory) configuration,
// Snapshot the result, and stamp a fresh ecosystem per consumer with
// RestoreInto instead of re-running the multi-second campaign.
//
// Ownership is decided once, here, for every part of the image:
//
//   - Shared, immutable: each DIMM's fabricated weak-cell population
//     and VRT index, and the hypervisor's object inventory. Neither is
//     ever written in place after it is built: weak cells are only
//     appended (dram.DIMM.Grow) through cap-limited views that
//     reallocate on their first append, and protection labels change
//     only by copying the inventory (hypervisor.ObjectMap.Protect).
//   - Copied per stamp: everything else the image holds. The image
//     owns its copies too (VRT state bits, health-log slabs, history
//     tables, archive entries, chip, allocations), so its source may
//     keep running and any number of workers may stamp it at once.
//   - Re-derived per stamp: the HealthLog→StressLog trigger wiring,
//     the advisor's binding to the stamped model and table, the
//     per-window scratch, the CPU power, DRAM refresh and thermal
//     trip models (constants of the spec, as New builds them), and
//     the thermal nodes, which are re-seated at the ambient
//     RestoreOptions name.
//
// The exported fields are also the wire form Save encodes; LoadSnapshot
// validates every extent and index a stamp would follow before
// returning an image.
//
// Take the snapshot when the thermal state is re-derivable from
// ambient: after PreDeployment and before the first runtime window,
// or — since the lifetime engine — on an epoch boundary right after a
// fast-forward gap, which re-seats the thermal nodes at ambient
// exactly as a restore does. In both positions a restored ecosystem
// is indistinguishable, stream for stream and byte for byte, from its
// source (pass the source's current ambient in RestoreOptions for
// mid-life snapshots). Snapshotting mid-epoch would lose the
// accumulated die/DIMM temperatures, so Snapshot refuses it with an
// error rather than corrupting restores silently.
type Snapshot struct {
	Opts          Options // HealthLogOut is always nil
	Clock         time.Time
	Src           uint64
	Chip          silicon.Chip
	MachineStream uint64
	Mem           dram.FlatMemory
	Health        healthlog.Compiled
	Stress        stresslog.Compiled
	Hyp           hypervisor.Image

	Model      predictor.Model
	Table      *vfr.EOPTable
	HasAdvisor bool
	Advisor    predictor.Advisor // Model and Table nil; rebound per stamp

	Mode             vfr.Mode
	WeakGrowthPerDay float64
	WorstComp        string
	WorstMargin      vfr.Margin
	WindowsRun       int
	AtEpochBoundary  bool

	coreNames []string // derived from Opts.Part
}

// Snapshot compiles the ecosystem's current state into its image. The
// image owns or immutably shares everything it holds, so the live
// ecosystem can keep running (or be discarded) without disturbing
// later restores. It returns an error when runtime windows have run
// and the ecosystem is not on an epoch boundary: a restore re-derives
// the thermal nodes from ambient, which is exact only where the
// thermal state already sits at ambient.
func (e *Ecosystem) Snapshot() (*Snapshot, error) {
	if e.windowsRun > 0 && !e.atEpochBoundary {
		return nil, fmt.Errorf("core: snapshot after %d runtime windows is unsupported mid-epoch (thermal state would be lost on restore); snapshot before the first window or on a fast-forward epoch boundary", e.windowsRun)
	}
	s := &Snapshot{
		Opts:          e.opts,
		Clock:         e.Clock.Now(),
		Src:           e.src.State(),
		MachineStream: e.Machine.StreamState(),
		Mem:           e.Mem.Flatten(),
		Health:        e.Health.Compile(),
		Stress:        e.Stress.Compile(),
		Hyp:           e.Hypervisor.Image(),

		Model: *e.Model,

		Mode:             e.mode,
		WeakGrowthPerDay: e.weakGrowthPerDay,
		WorstComp:        e.worstComp,
		WorstMargin:      e.worstMargin,
		WindowsRun:       e.windowsRun,
		AtEpochBoundary:  e.atEpochBoundary,

		coreNames: coreNamesFor(e.opts.Part),
	}
	s.Opts.HealthLogOut = nil
	e.Machine.Chip.CopyInto(&s.Chip)
	if e.table != nil {
		s.Table = e.table.Clone()
	}
	if e.advisor != nil {
		s.HasAdvisor = true
		s.Advisor = *e.advisor
		s.Advisor.Model, s.Advisor.Table = nil, nil
	}
	return s, nil
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

// Reseed re-keys the ecosystem's runtime-facing random streams to a
// fresh seed — the archetype-clone hook. A fleet that characterizes
// one ecosystem per silicon/DRAM bin stamps a restore per node and
// Reseeds each with the node's own seed, so everything the
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

// coreNamesFor precomputes the per-core component names RuntimeWindow
// records under.
func coreNamesFor(part cpu.PartSpec) []string {
	names := make([]string, part.Cores)
	for c := range names {
		names[c] = fmt.Sprintf("%s/core%d", part.Model, c)
	}
	return names
}
