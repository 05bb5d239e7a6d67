package core

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"time"

	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/healthlog"
	"uniserver/internal/hypervisor"
	"uniserver/internal/power"
	"uniserver/internal/predictor"
	"uniserver/internal/rng"
	"uniserver/internal/silicon"
	"uniserver/internal/stresslog"
	"uniserver/internal/telemetry"
	"uniserver/internal/thermal"
	"uniserver/internal/vfr"
)

// SnapshotFormatVersion identifies the on-disk snapshot encoding.
// Readers refuse any other version: the wire form mirrors internal
// simulator state, so a silent cross-version read would corrupt
// results instead of failing loudly. Bump it whenever serialized
// state changes shape or meaning. Version 2 moved the VRT telegraph
// state out of the weak cells into per-DIMM state bits (VRTState).
const SnapshotFormatVersion = 2

// optionsState is Options minus the log writer (an io.Writer has no
// wire form; restored ecosystems get their writer from
// RestoreOptions, exactly as in-memory restores do).
type optionsState struct {
	Seed         uint64
	Part         cpu.PartSpec
	Mem          dram.Config
	Hyp          hypervisor.Config
	StressPeriod time.Duration
	AmbientCPUC  float64
	AmbientDIMMC float64
}

// snapshotState is the gob wire form of a characterized ecosystem:
// every deep-copied surface of Snapshot (see snapshot.go's ownership
// table), flattened into exported state via the per-package
// persistence hooks. Re-derived surfaces (trigger wiring, advisor,
// thermal nodes, per-window scratch) are reconstructed on read, not
// transmitted.
type snapshotState struct {
	Options optionsState
	Clock   time.Time
	Src     uint64
	Mode    vfr.Mode

	Chip          *silicon.Chip
	StressedHours float64
	MachineStream uint64

	Mem *dram.MemorySystem
	// VRTState carries each DIMM's telegraph state bits (domain then
	// DIMM order); Mem's weak cells carry only the fabricated,
	// immutable population.
	VRTState [][]uint64

	Health healthlog.DaemonState
	Stress stresslog.DaemonState

	Model      predictor.Model
	Table      *vfr.EOPTable
	HasAdvisor bool
	MaxBackoff int

	Objects  []hypervisor.Object
	Profiles []hypervisor.CategoryProfile
}

// Save serializes the snapshot in the versioned gob format
// LoadSnapshot inverts. Only pre-deployment characterization
// snapshots are writable: once a mode has been entered or guests
// placed, the hypervisor carries applied-point and placement state
// the wire form does not model (the on-disk cache, like the in-memory
// one, spills the post-PreDeployment checkpoint and re-enters the
// mode after restore).
func (s *Snapshot) Save(w io.Writer) error {
	e := s.proto
	if e.windowsRun > 0 {
		return fmt.Errorf("core: refusing to serialize a mid-life snapshot (%d windows run); only pre-deployment characterization snapshots persist", e.windowsRun)
	}
	if e.mode != vfr.ModeNominal {
		return errors.New("core: refusing to serialize a snapshot taken after mode entry; snapshot between PreDeployment and EnterMode")
	}
	if len(e.Hypervisor.VMNames()) > 0 {
		return errors.New("core: refusing to serialize a snapshot with placed guests")
	}
	st := snapshotState{
		Options: optionsState{
			Seed:         e.opts.Seed,
			Part:         e.opts.Part,
			Mem:          e.opts.Mem,
			Hyp:          e.opts.Hyp,
			StressPeriod: e.opts.StressPeriod,
			AmbientCPUC:  e.opts.AmbientCPUC,
			AmbientDIMMC: e.opts.AmbientDIMMC,
		},
		Clock:         e.Clock.Now(),
		Src:           e.src.State(),
		Mode:          e.mode,
		Chip:          e.Machine.Chip,
		StressedHours: e.Machine.Chip.StressedHours(),
		MachineStream: e.Machine.StreamState(),
		Mem:           e.Mem,
		VRTState:      e.Mem.VRTState(),
		Health:        e.Health.ExportState(),
		Stress:        e.Stress.ExportState(),
		Model:         *e.Model,
		Table:         e.table,
		HasAdvisor:    e.advisor != nil,
		Objects:       e.Hypervisor.Objects().Objects,
		Profiles:      e.Hypervisor.Objects().Profiles(),
	}
	if e.advisor != nil {
		st.MaxBackoff = e.advisor.MaxBackoffMV
	}
	enc := gob.NewEncoder(w)
	if err := enc.Encode(SnapshotFormatVersion); err != nil {
		return fmt.Errorf("core: writing snapshot version: %w", err)
	}
	if err := enc.Encode(&st); err != nil {
		return fmt.Errorf("core: writing snapshot state: %w", err)
	}
	return nil
}

// LoadSnapshot reads a snapshot written by Save, refusing
// mismatched format versions. The reconstructed ecosystem is
// assembled exactly as New + the serialized history would have left
// it — same stream positions, same clock, same fabricated and aged
// hardware, same daemon state — so Restores from it are
// bit-indistinguishable from Restores of the original in-memory
// snapshot (pinned by TestSnapshotDiskRoundTrip).
func LoadSnapshot(r io.Reader) (*Snapshot, error) {
	dec := gob.NewDecoder(r)
	var version int
	if err := dec.Decode(&version); err != nil {
		return nil, fmt.Errorf("core: reading snapshot version: %w", err)
	}
	if version != SnapshotFormatVersion {
		return nil, fmt.Errorf("core: snapshot format version %d does not match this build's %d; refusing to load",
			version, SnapshotFormatVersion)
	}
	var st snapshotState
	if err := dec.Decode(&st); err != nil {
		return nil, fmt.Errorf("core: reading snapshot state: %w", err)
	}
	opts := Options{
		Seed:         st.Options.Seed,
		Part:         st.Options.Part,
		Mem:          st.Options.Mem,
		Hyp:          st.Options.Hyp,
		StressPeriod: st.Options.StressPeriod,
		AmbientCPUC:  st.Options.AmbientCPUC,
		AmbientDIMMC: st.Options.AmbientDIMMC,
	}
	if st.Chip == nil || st.Mem == nil {
		return nil, errors.New("core: snapshot state missing chip or memory system")
	}

	clock := telemetry.NewClock(st.Clock)
	st.Chip.SetStressedHours(st.StressedHours)
	machine := cpu.RestoreMachine(opts.Part, st.Chip, st.MachineStream)
	st.Mem.Reindex()
	if err := st.Mem.SetVRTState(st.VRTState); err != nil {
		return nil, fmt.Errorf("core: restoring DRAM state: %w", err)
	}
	health := healthlog.NewFromState(st.Health, clock, nil)
	refresh := power.DRAMRefreshModel{DeviceGb: opts.Mem.DeviceGb, TotalMemW: 12}
	stressd, err := stresslog.NewFromState(st.Stress, clock, machine, st.Mem, health, refresh)
	if err != nil {
		return nil, fmt.Errorf("core: restoring stresslog: %w", err)
	}
	health.OnStressTrigger(stressd.TriggerHandler())
	hyp, err := hypervisor.New(opts.Hyp, hypervisor.ObjectMapFromState(st.Objects, st.Profiles), st.Mem)
	if err != nil {
		return nil, fmt.Errorf("core: rebuilding hypervisor: %w", err)
	}
	model := st.Model

	e := &Ecosystem{
		Clock:      clock,
		Machine:    machine,
		Mem:        st.Mem,
		Health:     health,
		Stress:     stressd,
		Model:      &model,
		Hypervisor: hyp,

		opts:     opts,
		src:      rng.FromState(st.Src),
		power:    power.DefaultCPUModel(),
		refresh:  refresh,
		mode:     st.Mode,
		cpuTherm: thermal.CPUNode(opts.AmbientCPUC),
		memTherm: thermal.DIMMNode(opts.AmbientDIMMC),
		trip:     thermal.DefaultTrip(),
		dramHits: make(map[string]int),
	}
	if st.Table != nil {
		e.setTable(st.Table)
	}
	if st.HasAdvisor {
		e.advisor = predictor.NewAdvisor(e.Model, e.table)
		e.advisor.MaxBackoffMV = st.MaxBackoff
	}
	e.coreNames = make([]string, opts.Part.Cores)
	for c := range e.coreNames {
		e.coreNames[c] = fmt.Sprintf("%s/core%d", opts.Part.Model, c)
	}
	e.coreOf = func(string) int { return e.curCore }
	return &Snapshot{proto: e}, nil
}
