package healthlog

import (
	"fmt"
	"io"
	"sort"
	"time"

	"uniserver/internal/telemetry"
)

// Compiled is the frozen image of a Daemon's recorded state: every
// component's retained vectors with their sensor and error payloads
// concatenated into two slabs. Compile builds it once per
// characterization; StampInto replays it into a restore arena daemon
// with bulk copies — no per-vector allocations, no locks on the
// shared image. A Compiled owns all of its storage, so its source may
// keep recording, and it is safe for concurrent StampInto calls.
//
// The exported fields are the image's wire form (gob); Validate
// checks a decoded image. A logfile write error is writer state and
// does not travel.
type Compiled struct {
	Cfg      Config
	Recorded uint64
	Crashes  uint64
	Comps    []compiledComp
	Vecs     []compiledVec
	Sensors  []telemetry.Reading
	Errs     []telemetry.ErrorEvent
	writeErr error
}

type compiledComp struct {
	Name         string
	VecLo, VecHi int // extent in Compiled.Vecs
	WinStart     int
	WinErrs      int
	LastTime     time.Time
	Dirty        bool
}

// compiledVec is an InfoVector with its slice payloads replaced by
// slab extents.
type compiledVec struct {
	Vec            telemetry.InfoVector // Sensors/Errors nil
	SensLo, SensHi int
	ErrLo, ErrHi   int
}

// Compile freezes the daemon's recorded state into its image.
// Components are laid out in sorted name order so the image — and its
// encoding — is reproducible regardless of map iteration.
func (d *Daemon) Compile() Compiled {
	d.mu.Lock()
	defer d.mu.Unlock()
	c := Compiled{
		Cfg:      d.cfg,
		Recorded: d.recorded,
		Crashes:  d.crashes,
		writeErr: d.writeErr,
		Comps:    make([]compiledComp, 0, len(d.byComp)),
	}
	names := make([]string, 0, len(d.byComp))
	for name := range d.byComp {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := d.byComp[name]
		cc := compiledComp{
			Name:     name,
			VecLo:    len(c.Vecs),
			VecHi:    len(c.Vecs) + len(h.vecs),
			WinStart: h.winStart,
			WinErrs:  h.winErrs,
			LastTime: h.lastTime,
			Dirty:    h.dirty,
		}
		for _, v := range h.vecs {
			cv := compiledVec{
				Vec:    v,
				SensLo: len(c.Sensors),
				SensHi: len(c.Sensors) + len(v.Sensors),
				ErrLo:  len(c.Errs),
				ErrHi:  len(c.Errs) + len(v.Errors),
			}
			c.Sensors = append(c.Sensors, v.Sensors...)
			c.Errs = append(c.Errs, v.Errors...)
			cv.Vec.Sensors = nil
			cv.Vec.Errors = nil
			c.Vecs = append(c.Vecs, cv)
		}
		c.Comps = append(c.Comps, cc)
	}
	return c
}

// Validate checks a decoded image before anything is stamped from it:
// positive thresholds (New normalizes every live daemon's), and every
// component, sensor and error extent inside its slab, with each
// component's rolling-window cursor inside its own vectors.
func (c *Compiled) Validate() error {
	if c.Cfg.ErrorThreshold <= 0 || c.Cfg.Window <= 0 || c.Cfg.RetainVectors <= 0 {
		return fmt.Errorf("healthlog: image config %+v has a non-positive limit", c.Cfg)
	}
	for _, cc := range c.Comps {
		if cc.VecLo < 0 || cc.VecLo > cc.VecHi || cc.VecHi > len(c.Vecs) {
			return fmt.Errorf("healthlog: component %q vector extent [%d,%d) outside %d vectors", cc.Name, cc.VecLo, cc.VecHi, len(c.Vecs))
		}
		if cc.WinStart < 0 || cc.WinStart > cc.VecHi-cc.VecLo {
			return fmt.Errorf("healthlog: component %q window cursor %d outside its %d vectors", cc.Name, cc.WinStart, cc.VecHi-cc.VecLo)
		}
	}
	for i, cv := range c.Vecs {
		if cv.SensLo < 0 || cv.SensLo > cv.SensHi || cv.SensHi > len(c.Sensors) {
			return fmt.Errorf("healthlog: vector %d sensor extent [%d,%d) outside %d readings", i, cv.SensLo, cv.SensHi, len(c.Sensors))
		}
		if cv.ErrLo < 0 || cv.ErrLo > cv.ErrHi || cv.ErrHi > len(c.Errs) {
			return fmt.Errorf("healthlog: vector %d error extent [%d,%d) outside %d events", i, cv.ErrLo, cv.ErrHi, len(c.Errs))
		}
	}
	return nil
}

// StampInto overwrites d with the compiled image, timestamping with
// clock and writing future log lines to out. It reuses d's component
// histories, vector slices and sensor/error slabs; stamped vectors'
// Sensors/Errors alias the daemon-owned slabs (capacity-clamped, so a
// consumer appending to a queried vector reallocates instead of
// corrupting a neighbour); a zero d is filled. Listeners and trigger
// callbacks are dropped: they are closures over the source's sibling
// daemons, and the caller re-subscribes its own.
//
// The caller must own d exclusively: StampInto is the arena path, not
// a concurrent mutation of a live daemon.
func (c *Compiled) StampInto(d *Daemon, clock *telemetry.Clock, out io.Writer) {
	d.cfg = c.Cfg
	d.clock = clock
	d.out = out
	d.recorded = c.Recorded
	d.crashes = c.Crashes
	d.writeErr = c.writeErr
	// Truncate rather than nil: an empty slice means "no callbacks"
	// exactly like nil does, and keeps the storage a following
	// RewireStressTrigger refills without allocating.
	d.listeners = d.listeners[:0]
	d.onTrigger = d.onTrigger[:0]

	d.sensorSlab = append(d.sensorSlab[:0], c.Sensors...)
	d.errorSlab = append(d.errorSlab[:0], c.Errs...)

	if d.byComp == nil {
		d.byComp = make(map[string]*compHistory, len(c.Comps))
	} else {
		// Sweep histories the image doesn't know (arena reuse across
		// images) into the spares; same-image stamps find every key
		// present.
		for name, h := range d.byComp {
			if !c.hasComp(name) {
				delete(d.byComp, name)
				d.spare = append(d.spare, h)
			}
		}
	}
	for _, cc := range c.Comps {
		h := d.byComp[cc.Name]
		if h == nil {
			if n := len(d.spare); n > 0 {
				h, d.spare = d.spare[n-1], d.spare[:n-1]
			} else {
				h = &compHistory{}
			}
			d.byComp[cc.Name] = h
		}
		h.winStart = cc.WinStart
		h.winErrs = cc.WinErrs
		h.lastTime = cc.LastTime
		h.dirty = cc.Dirty
		vecs := h.vecs[:0]
		for _, cv := range c.Vecs[cc.VecLo:cc.VecHi] {
			v := cv.Vec
			v.Sensors = d.sensorSlab[cv.SensLo:cv.SensHi:cv.SensHi]
			v.Errors = d.errorSlab[cv.ErrLo:cv.ErrHi:cv.ErrHi]
			vecs = append(vecs, v)
		}
		h.vecs = vecs
	}
}

func (c *Compiled) hasComp(name string) bool {
	for _, cc := range c.Comps {
		if cc.Name == name {
			return true
		}
	}
	return false
}

// RewireStressTrigger replaces every stress-trigger callback with f,
// reusing the callback slice's storage. Stamp-path use only: the
// caller must own the daemon exclusively (no concurrent Record), which
// is what licenses breaking the copy-on-write discipline OnStressTrigger
// maintains for live daemons.
func (d *Daemon) RewireStressTrigger(f func(TriggerReason)) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.onTrigger = append(d.onTrigger[:0], f)
}
