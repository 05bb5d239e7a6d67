package stresslog

import (
	"errors"
	"time"

	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/healthlog"
	"uniserver/internal/power"
	"uniserver/internal/stress"
	"uniserver/internal/telemetry"
)

// Compiled is the frozen image of a Daemon's characterization state:
// the schedule position, pending triggers, published-margin history
// and virus archive. It owns its copies of the history tables and the
// archive entries — its source may still be live and re-characterize
// — so stamping needs no locks on shared state and is safe from any
// number of workers at once.
//
// The exported fields are the image's wire form (gob; the history's
// EOP tables through vfr's versioned encoding); Validate checks a
// decoded image.
type Compiled struct {
	Period  time.Duration
	Online  bool
	LastRun time.Time
	Pending []healthlog.TriggerReason
	History []MarginVector        // tables owned by the image
	Archive []stress.ArchiveEntry // sorted by name
}

// Compile freezes the daemon into its image.
func (d *Daemon) Compile() Compiled {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := Compiled{
		Period:  d.period,
		Online:  d.online,
		LastRun: d.lastRun,
		Pending: append([]healthlog.TriggerReason(nil), d.pending...),
		History: make([]MarginVector, len(d.history)),
		Archive: d.archive.Entries(),
	}
	for i, vec := range d.history {
		if vec.Table != nil {
			vec.Table = vec.Table.Clone()
		}
		c.History[i] = vec
	}
	return c
}

// Validate checks a decoded image: archive entries must be named, as
// Archive.Put requires.
func (c *Compiled) Validate() error {
	for _, e := range c.Archive {
		if e.Name == "" {
			return errors.New("stresslog: image archive holds an unnamed virus")
		}
	}
	return nil
}

// StampInto overwrites d with the image, rebinding it to the arena's
// clock, machine, memory, health daemon and refresh model (a constant
// of the node's spec, which the image does not carry); a zero d is
// filled. History
// tables are copied into d's existing table storage (CopyFrom reuses
// map buckets), and the archive likewise, so a re-characterization on
// the stamped daemon evolves independently of the image. The caller
// owns d exclusively and re-hooks TriggerHandler into its HealthLog.
func (c *Compiled) StampInto(d *Daemon, clock *telemetry.Clock, m *cpu.Machine,
	mem *dram.MemorySystem, health *healthlog.Daemon, refresh power.DRAMRefreshModel) {
	d.clock = clock
	d.machine = m
	d.mem = mem
	d.health = health
	d.refresh = refresh
	d.period = c.Period
	d.online = c.Online
	d.lastRun = c.LastRun
	d.pending = append(d.pending[:0], c.Pending...)
	if d.archive == nil {
		d.archive = stress.NewArchive()
	}
	d.archive.SetEntries(c.Archive)

	old := d.history
	d.history = d.history[:0]
	for i, vec := range c.History {
		if vec.Table != nil {
			if i < len(old) && old[i].Table != nil {
				t := old[i].Table
				t.CopyFrom(vec.Table)
				vec.Table = t
			} else {
				vec.Table = vec.Table.Clone()
			}
		}
		d.history = append(d.history, vec)
	}
}
