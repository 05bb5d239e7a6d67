package core

import (
	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/healthlog"
	"uniserver/internal/hypervisor"
	"uniserver/internal/power"
	"uniserver/internal/predictor"
	"uniserver/internal/rng"
	"uniserver/internal/stresslog"
	"uniserver/internal/telemetry"
	"uniserver/internal/thermal"
	"uniserver/internal/vfr"
)

// RestoreTemplate is the name the restore path's consumers knew the
// compiled image by before the image became the snapshot itself.
type RestoreTemplate = Snapshot

// Compile returns the snapshot itself: Snapshot already is the
// compiled image that RestoreInto stamps from. It stays so that code
// written against the two-step snapshot-then-compile API (the
// perfbench/ benchmark program among it) keeps compiling unchanged.
func (s *Snapshot) Compile() *RestoreTemplate { return s }

// RestoreArena is one worker's reusable restore destination: an
// ecosystem graph that every RestoreInto overwrites in place, so
// steady-state restores allocate almost nothing. A new arena is a
// zero-valued graph; its first stamp fills it through the same stamp
// functions every later one reuses. An arena is single-owner — one
// worker goroutine stamps and runs one node at a time — and must not
// be handed to a consumer that outlives the next stamp, which the
// fleet engine's node lifecycle guarantees (nothing retained from a
// finished node aliases ecosystem internals).
type RestoreArena struct {
	eco *Ecosystem
	// trigger is the arena stress daemon's campaign-request callback,
	// created once: the daemon pointer is stable across stamps, so the
	// closure stays valid and re-wiring it is allocation-free.
	trigger func(healthlog.TriggerReason)
}

// NewRestoreArena returns an arena holding a zero-valued ecosystem
// graph; the first RestoreInto fills it.
func NewRestoreArena() *RestoreArena {
	e := &Ecosystem{
		Clock:      &telemetry.Clock{},
		Machine:    &cpu.Machine{},
		Mem:        &dram.MemorySystem{},
		Health:     &healthlog.Daemon{},
		Stress:     &stresslog.Daemon{},
		Model:      &predictor.Model{},
		Hypervisor: &hypervisor.Hypervisor{},
		src:        &rng.Source{},
		cpuTherm:   &thermal.Node{},
		memTherm:   &thermal.Node{},
		dramHits:   make(map[string]int),
	}
	e.coreOf = func(string) int { return e.curCore }
	return &RestoreArena{eco: e, trigger: e.Stress.TriggerHandler()}
}

// RestoreInto materializes an independent ecosystem from the image
// into the arena — the only way characterized state becomes a running
// ecosystem. The returned ecosystem IS the arena's (reused across
// calls): it is valid until the next RestoreInto on the same arena.
// Images are valid by construction or validated on decode, so stamping
// cannot fail; the error result is kept for callers written against
// fallible restores.
func (s *Snapshot) RestoreInto(a *RestoreArena, opts RestoreOptions) (*Ecosystem, error) {
	c := a.eco
	c.opts = s.Opts
	c.opts.HealthLogOut = opts.HealthLogOut

	c.Clock.Reset(s.Clock)
	c.Machine.Stamp(s.Opts.Part, &s.Chip, s.MachineStream)
	s.Mem.StampInto(c.Mem)
	s.Health.StampInto(c.Health, c.Clock, opts.HealthLogOut)
	c.Health.RewireStressTrigger(a.trigger)
	refresh := refreshModel(s.Opts)
	s.Stress.StampInto(c.Stress, c.Clock, c.Machine, c.Mem, c.Health, refresh)
	s.Hyp.StampInto(c.Hypervisor, c.Mem)

	*c.src = *rng.FromState(s.Src)
	*c.Model = s.Model
	// The power, refresh and trip models are constants of the spec:
	// re-derived as New derives them, never carried in the image.
	c.power = power.DefaultCPUModel()
	c.refresh = refresh
	c.trip = thermal.DefaultTrip()
	c.mode = s.Mode
	c.weakGrowthPerDay = s.WeakGrowthPerDay
	c.worstComp = s.WorstComp
	c.worstMargin = s.WorstMargin
	c.windowsRun = s.WindowsRun
	c.atEpochBoundary = s.AtEpochBoundary

	if s.Table == nil {
		c.table = nil
	} else {
		if c.table == nil {
			c.table = vfr.NewEOPTable()
		}
		c.table.CopyFrom(s.Table)
	}
	if !s.HasAdvisor {
		c.advisor = nil
	} else {
		if c.advisor == nil {
			c.advisor = &predictor.Advisor{}
		}
		*c.advisor = s.Advisor
		c.advisor.Model = c.Model
		c.advisor.Table = c.table
	}

	c.coreNames = append(c.coreNames[:0], s.coreNames...)
	clear(c.dramHits)
	// c.coreOf captures the (stable) arena ecosystem; c.curCore and
	// c.dramSrc are per-window scratch, always written before read.

	ambCPU, ambDIMM := opts.AmbientCPUC, opts.AmbientDIMMC
	if ambCPU == 0 {
		ambCPU = 28
	}
	if ambDIMM == 0 {
		ambDIMM = 34
	}
	c.opts.AmbientCPUC, c.opts.AmbientDIMMC = ambCPU, ambDIMM
	*c.cpuTherm = *thermal.CPUNode(ambCPU)
	*c.memTherm = *thermal.DIMMNode(ambDIMM)
	return c, nil
}
