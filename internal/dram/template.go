package dram

import (
	"errors"
	"fmt"
	"time"
)

// FlatMemory is a compiled image of a MemorySystem for mass
// restoration. The weak-cell populations and VRT indices are
// immutable after fabrication, so the image holds them by cap-limited
// reference and only the per-DIMM telegraph state bits are copied —
// concatenated into one slab with per-DIMM extents. It is built once
// per restore template (Flatten) and stamped into reusable arena
// memory systems (StampInto) with one bulk copy of the state bits per
// DIMM and no population copy at all. A FlatMemory is immutable after
// Flatten and safe for concurrent StampInto calls from many workers.
type FlatMemory struct {
	model   RetentionModel
	tempC   float64
	domains []flatDomain
	dimms   []flatDIMM
	low     []uint64 // all DIMMs' initial VRT state bits, concatenated
}

type flatDomain struct {
	name           string
	refresh        time.Duration
	reliable       bool
	dimmLo, dimmHi int // extent in FlatMemory.dimms
}

type flatDIMM struct {
	capacityBytes uint64
	deviceGb      int
	weak          []WeakCell // shared, cap-limited
	vrt           []int      // shared, cap-limited
	lowLo, lowHi  int        // extent in FlatMemory.low
}

// Flatten compiles the memory system into its template image. The
// receiver must not be mutated concurrently.
func (ms *MemorySystem) Flatten() *FlatMemory {
	var nDIMMs, nLow int
	for _, dom := range ms.Domains {
		nDIMMs += len(dom.DIMMs)
		for _, d := range dom.DIMMs {
			nLow += lowWords(len(d.Weak))
		}
	}
	f := &FlatMemory{
		model:   ms.Model,
		tempC:   ms.TempC,
		domains: make([]flatDomain, 0, len(ms.Domains)),
		dimms:   make([]flatDIMM, 0, nDIMMs),
		low:     make([]uint64, 0, nLow),
	}
	for _, dom := range ms.Domains {
		fd := flatDomain{
			name:     dom.Name,
			refresh:  dom.Refresh,
			reliable: dom.Reliable,
			dimmLo:   len(f.dimms),
		}
		for _, d := range dom.DIMMs {
			lo := len(f.low)
			f.low = append(f.low, make([]uint64, lowWords(len(d.Weak)))...)
			copy(f.low[lo:], d.low)
			f.dimms = append(f.dimms, flatDIMM{
				capacityBytes: d.CapacityBytes,
				deviceGb:      d.DeviceGb,
				weak:          shared(d.Weak),
				vrt:           shared(d.vrt),
				lowLo:         lo,
				lowHi:         len(f.low),
			})
		}
		fd.dimmHi = len(f.dimms)
		f.domains = append(f.domains, fd)
	}
	return f
}

// StampInto overwrites ms with the template image, reusing ms's
// Domain and DIMM objects and their state-bit storage when the shape
// matches (it always does when an arena is re-stamped from templates
// of the same spec). Domain pointer identity is preserved across
// same-shape stamps, which lets an Allocator stamped alongside keep
// its per-domain usage map keys stable.
func (f *FlatMemory) StampInto(ms *MemorySystem) {
	ms.Model = f.model
	ms.TempC = f.tempC
	if !f.shapeMatches(ms) {
		f.rebuild(ms)
		return
	}
	for di, fd := range f.domains {
		dom := ms.Domains[di]
		dom.Name = fd.name
		dom.Refresh = fd.refresh
		dom.Reliable = fd.reliable
		for i, fdim := range f.dimms[fd.dimmLo:fd.dimmHi] {
			d := dom.DIMMs[i]
			d.CapacityBytes = fdim.capacityBytes
			d.DeviceGb = fdim.deviceGb
			d.Weak = fdim.weak
			d.vrt = fdim.vrt
			d.low = append(d.low[:0], f.low[fdim.lowLo:fdim.lowHi]...)
		}
	}
}

func (f *FlatMemory) shapeMatches(ms *MemorySystem) bool {
	if len(ms.Domains) != len(f.domains) {
		return false
	}
	for di, fd := range f.domains {
		dom := ms.Domains[di]
		if dom == nil || len(dom.DIMMs) != fd.dimmHi-fd.dimmLo {
			return false
		}
		for _, d := range dom.DIMMs {
			if d == nil {
				return false
			}
		}
	}
	return true
}

// rebuild replaces ms's domain graph wholesale — the cold path taken
// the first time an arena is stamped or when templates of different
// memory shapes share an arena.
func (f *FlatMemory) rebuild(ms *MemorySystem) {
	ms.Domains = make([]*Domain, len(f.domains))
	for di, fd := range f.domains {
		dom := &Domain{
			Name:     fd.name,
			Refresh:  fd.refresh,
			Reliable: fd.reliable,
			DIMMs:    make([]*DIMM, fd.dimmHi-fd.dimmLo),
		}
		for i, fdim := range f.dimms[fd.dimmLo:fd.dimmHi] {
			dom.DIMMs[i] = &DIMM{
				CapacityBytes: fdim.capacityBytes,
				DeviceGb:      fdim.deviceGb,
				Weak:          fdim.weak,
				vrt:           fdim.vrt,
				low:           append([]uint64(nil), f.low[fdim.lowLo:fdim.lowHi]...),
			}
		}
		ms.Domains[di] = dom
	}
}

// StampFrom overwrites al with a copy of src rebound to ms, reusing
// al's allocation slice and usage-map storage. ms must be shaped like
// src's memory system (same domain count and order); allocations and
// usage entries are remapped positionally, exactly as CloneFor does.
func (al *Allocator) StampFrom(src *Allocator, ms *MemorySystem) error {
	if len(ms.Domains) != len(src.ms.Domains) {
		return fmt.Errorf("dram: StampFrom target has %d domains, source's system has %d",
			len(ms.Domains), len(src.ms.Domains))
	}
	al.ms = ms
	al.nextRelaxed = src.nextRelaxed
	al.allocations = append(al.allocations[:0], src.allocations...)
	for i := range al.allocations {
		nd := remapDomain(al.allocations[i].Domain, src.ms, ms)
		if nd == nil {
			return fmt.Errorf("dram: allocation %q points outside the allocator's memory system",
				al.allocations[i].Owner)
		}
		al.allocations[i].Domain = nd
	}
	if al.used == nil {
		al.used = make(map[*Domain]uint64, len(src.used))
	} else {
		clear(al.used)
	}
	for d, b := range src.used {
		nd := remapDomain(d, src.ms, ms)
		if nd == nil {
			return errors.New("dram: usage entry points outside the allocator's memory system")
		}
		al.used[nd] = b
	}
	return nil
}

// remapDomain maps a domain of from onto its positional twin in to.
// Linear scan: memory systems have a handful of domains, so this beats
// allocating a remap table on every stamp.
func remapDomain(d *Domain, from, to *MemorySystem) *Domain {
	for i, sd := range from.Domains {
		if sd == d {
			return to.Domains[i]
		}
	}
	return nil
}
