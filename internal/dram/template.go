package dram

import (
	"fmt"
	"math/bits"
	"time"
)

// FlatMemory is the frozen image of a MemorySystem that restores are
// stamped from. The weak-cell populations and VRT indices are
// immutable after fabrication, so the image holds them by cap-limited
// reference and only the per-DIMM telegraph state bits are copied —
// concatenated into one slab with per-DIMM extents. Flatten builds it
// once per characterization; StampInto writes it into restore arena
// memory systems with one bulk copy of the state bits per DIMM and no
// population copy at all. A FlatMemory is immutable once built and
// safe for concurrent StampInto calls from many workers.
//
// The exported fields are the image's wire form (gob). The VRT index
// is derived state and does not travel: Validate rebuilds it after a
// decode.
type FlatMemory struct {
	Model   RetentionModel
	TempC   float64
	Domains []flatDomain
	DIMMs   []flatDIMM
	Low     []uint64 // all DIMMs' VRT state bits, concatenated
}

type flatDomain struct {
	Name           string
	Refresh        time.Duration
	Reliable       bool
	DIMMLo, DIMMHi int // extent in FlatMemory.DIMMs
}

type flatDIMM struct {
	CapacityBytes uint64
	DeviceGb      int
	Weak          []WeakCell // shared, cap-limited
	vrt           []int      // shared, cap-limited; rebuilt by Validate
	LowLo, LowHi  int        // extent in FlatMemory.Low
}

// Flatten freezes the memory system into its image. The receiver
// must not be mutated concurrently; afterwards it may keep running,
// since the image copies the only per-cell state that changes (the
// telegraph bits) and shares only append-only populations.
func (ms *MemorySystem) Flatten() FlatMemory {
	var nDIMMs, nLow int
	for _, dom := range ms.Domains {
		nDIMMs += len(dom.DIMMs)
		for _, d := range dom.DIMMs {
			nLow += lowWords(len(d.Weak))
		}
	}
	f := FlatMemory{
		Model:   ms.Model,
		TempC:   ms.TempC,
		Domains: make([]flatDomain, 0, len(ms.Domains)),
		DIMMs:   make([]flatDIMM, 0, nDIMMs),
		Low:     make([]uint64, 0, nLow),
	}
	for _, dom := range ms.Domains {
		fd := flatDomain{
			Name:     dom.Name,
			Refresh:  dom.Refresh,
			Reliable: dom.Reliable,
			DIMMLo:   len(f.DIMMs),
		}
		for _, d := range dom.DIMMs {
			lo := len(f.Low)
			f.Low = append(f.Low, make([]uint64, lowWords(len(d.Weak)))...)
			copy(f.Low[lo:], d.low)
			f.DIMMs = append(f.DIMMs, flatDIMM{
				CapacityBytes: d.CapacityBytes,
				DeviceGb:      d.DeviceGb,
				Weak:          shared(d.Weak),
				vrt:           shared(d.vrt),
				LowLo:         lo,
				LowHi:         len(f.Low),
			})
		}
		fd.DIMMHi = len(f.DIMMs)
		f.Domains = append(f.Domains, fd)
	}
	return f
}

// Validate checks a decoded image before anything is stamped from it:
// every domain's DIMM extent and every DIMM's state-bit extent must lie
// inside the image, each bitset must cover exactly its weak cells, and
// bits may be set only on VRT cells — a stable cell has no short state
// to sit in. It then rebuilds each DIMM's VRT index from its
// population, in fresh storage, and caps both shared slices. Images
// built by Flatten are valid by construction.
func (f *FlatMemory) Validate() error {
	for i, fd := range f.Domains {
		if fd.DIMMLo < 0 || fd.DIMMLo > fd.DIMMHi || fd.DIMMHi > len(f.DIMMs) {
			return fmt.Errorf("dram: domain %d DIMM extent [%d,%d) outside %d DIMMs", i, fd.DIMMLo, fd.DIMMHi, len(f.DIMMs))
		}
	}
	for k := range f.DIMMs {
		d := &f.DIMMs[k]
		if d.LowLo < 0 || d.LowLo > d.LowHi || d.LowHi > len(f.Low) {
			return fmt.Errorf("dram: DIMM %d VRT state extent [%d,%d) outside %d words", k, d.LowLo, d.LowHi, len(f.Low))
		}
		if n := d.LowHi - d.LowLo; n != lowWords(len(d.Weak)) {
			return fmt.Errorf("dram: DIMM %d VRT state has %d words, want %d for %d weak cells",
				k, n, lowWords(len(d.Weak)), len(d.Weak))
		}
		for w, word := range f.Low[d.LowLo:d.LowHi] {
			for word != 0 {
				i := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				if i >= len(d.Weak) || d.Weak[i].AltRetentionSec == 0 {
					return fmt.Errorf("dram: DIMM %d VRT state sets bit %d, which is not a VRT cell", k, i)
				}
			}
		}
		var vrt []int
		for i := range d.Weak {
			if d.Weak[i].AltRetentionSec > 0 {
				vrt = append(vrt, i)
			}
		}
		// Every stamp shares these slices, so they must be cap-limited
		// as Flatten's are: the rebuilt index grew by append, and gob
		// may decode a large population with spare capacity. Either
		// would let two stamps' Grow append into one backing array.
		d.Weak = shared(d.Weak)
		d.vrt = shared(vrt)
	}
	return nil
}

// StampInto overwrites ms with the image, reusing ms's Domain and DIMM
// objects and their state-bit storage when the shape matches (it
// always does when an arena is re-stamped from images of the same
// spec); a zero ms, or one of another shape, gets a fresh domain
// graph. Domain pointer identity is preserved across same-shape
// stamps, which lets an Allocator stamped alongside keep its
// per-domain usage map keys stable.
func (f *FlatMemory) StampInto(ms *MemorySystem) {
	ms.Model = f.Model
	ms.TempC = f.TempC
	if !f.shapeMatches(ms) {
		f.rebuild(ms)
		return
	}
	for di, fd := range f.Domains {
		dom := ms.Domains[di]
		dom.Name = fd.Name
		dom.Refresh = fd.Refresh
		dom.Reliable = fd.Reliable
		for i, fdim := range f.DIMMs[fd.DIMMLo:fd.DIMMHi] {
			d := dom.DIMMs[i]
			d.CapacityBytes = fdim.CapacityBytes
			d.DeviceGb = fdim.DeviceGb
			d.Weak = fdim.Weak
			d.vrt = fdim.vrt
			d.low = append(d.low[:0], f.Low[fdim.LowLo:fdim.LowHi]...)
		}
	}
}

func (f *FlatMemory) shapeMatches(ms *MemorySystem) bool {
	if len(ms.Domains) != len(f.Domains) {
		return false
	}
	for di, fd := range f.Domains {
		dom := ms.Domains[di]
		if dom == nil || len(dom.DIMMs) != fd.DIMMHi-fd.DIMMLo {
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
// the first time an arena is stamped or when images of different
// memory shapes share an arena.
func (f *FlatMemory) rebuild(ms *MemorySystem) {
	ms.Domains = make([]*Domain, len(f.Domains))
	for di, fd := range f.Domains {
		dom := &Domain{
			Name:     fd.Name,
			Refresh:  fd.Refresh,
			Reliable: fd.Reliable,
			DIMMs:    make([]*DIMM, fd.DIMMHi-fd.DIMMLo),
		}
		for i, fdim := range f.DIMMs[fd.DIMMLo:fd.DIMMHi] {
			dom.DIMMs[i] = &DIMM{
				CapacityBytes: fdim.CapacityBytes,
				DeviceGb:      fdim.DeviceGb,
				Weak:          fdim.Weak,
				vrt:           fdim.vrt,
				low:           append([]uint64(nil), f.Low[fdim.LowLo:fdim.LowHi]...),
			}
		}
		ms.Domains[di] = dom
	}
}

// AllocatorImage is the frozen form of an Allocator: its allocations
// and per-domain usage with every domain held by its index into the
// memory system's Domains rather than by pointer, so the image binds
// to whichever memory system it is stamped beside.
type AllocatorImage struct {
	Allocations []IndexedAllocation
	Used        []uint64 // bytes allocated, by domain index
	NextRelaxed int
}

// IndexedAllocation is an Allocation whose domain is an index into
// the memory system's Domains.
type IndexedAllocation struct {
	Owner       string
	Criticality Criticality
	Pages       uint64
	Domain      int
}

// Image freezes the allocator against its memory system's domain
// order.
func (al *Allocator) Image() AllocatorImage {
	img := AllocatorImage{
		Allocations: make([]IndexedAllocation, len(al.allocations)),
		Used:        make([]uint64, len(al.ms.Domains)),
		NextRelaxed: al.nextRelaxed,
	}
	for i, a := range al.allocations {
		img.Allocations[i] = IndexedAllocation{Owner: a.Owner, Criticality: a.Criticality, Pages: a.Pages,
			Domain: domainIndex(al.ms, a.Domain)}
	}
	for i, d := range al.ms.Domains {
		img.Used[i] = al.used[d]
	}
	return img
}

func domainIndex(ms *MemorySystem, d *Domain) int {
	for i, sd := range ms.Domains {
		if sd == d {
			return i
		}
	}
	return -1
}

// Validate checks a decoded image against the domain count of the
// memory system it will be stamped beside.
func (img *AllocatorImage) Validate(domains int) error {
	if len(img.Used) != domains {
		return fmt.Errorf("dram: allocator usage covers %d domains, memory system has %d", len(img.Used), domains)
	}
	for _, a := range img.Allocations {
		if a.Domain < 0 || a.Domain >= domains {
			return fmt.Errorf("dram: allocation %q on domain %d, memory system has %d", a.Owner, a.Domain, domains)
		}
	}
	return nil
}

// StampInto overwrites al with the image bound to ms, reusing al's
// allocation slice and usage-map storage; a zero al is filled. ms must
// have the domain count the image was validated against.
func (img *AllocatorImage) StampInto(al *Allocator, ms *MemorySystem) {
	al.ms = ms
	al.nextRelaxed = img.NextRelaxed
	al.allocations = al.allocations[:0]
	for _, a := range img.Allocations {
		al.allocations = append(al.allocations, Allocation{Owner: a.Owner, Criticality: a.Criticality, Pages: a.Pages,
			Domain: ms.Domains[a.Domain]})
	}
	if al.used == nil {
		al.used = make(map[*Domain]uint64, len(img.Used))
	} else {
		clear(al.used)
	}
	for i, b := range img.Used {
		if b != 0 {
			al.used[ms.Domains[i]] = b
		}
	}
}
