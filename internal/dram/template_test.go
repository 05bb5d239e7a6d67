package dram

import (
	"testing"

	"uniserver/internal/rng"
)

// TestStampSharesImmutablePopulation pins the sharing contract of the
// compiled image: stamped DIMMs reference the template's weak-cell
// population instead of copying it, and a Grow on one sharer — a
// stamp or a clone — reallocates rather than writing storage that a
// sibling, the template or the source system can see. Telegraph
// state stays per DIMM.
func TestStampSharesImmutablePopulation(t *testing.T) {
	model := DefaultRetentionModel()
	src, err := New(Config{Channels: 2, DIMMsPerChannel: 2, DIMMBytes: 1 << 30, DeviceGb: 2, TempC: 45},
		model, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	// Give the source's populations spare capacity past their length
	// (as an earlier Grow would): exactly the storage an uncapped view
	// would let two sharers append into.
	for _, dom := range src.Domains {
		for _, d := range dom.DIMMs {
			d.Weak = append(make([]WeakCell, 0, 2*len(d.Weak)), d.Weak...)
			d.vrt = append(make([]int, 0, 2*len(d.vrt)), d.vrt...)
		}
	}
	flat := src.Flatten()
	a, b := &MemorySystem{}, &MemorySystem{}
	flat.StampInto(a) // cold: rebuild
	flat.StampInto(a) // warm: in place
	flat.StampInto(b)
	clone := src.Clone()

	type view struct {
		n     int
		cells []WeakCell
		low   []bool
	}
	snap := func(ms *MemorySystem) []view {
		var out []view
		for _, dom := range ms.Domains {
			for _, d := range dom.DIMMs {
				v := view{n: len(d.Weak), cells: append([]WeakCell(nil), d.Weak...)}
				for i := range d.Weak {
					v.low = append(v.low, d.LowState(i))
				}
				out = append(out, v)
			}
		}
		return out
	}
	same := func(x, y []view) bool {
		if len(x) != len(y) {
			return false
		}
		for k := range x {
			if x[k].n != y[k].n {
				return false
			}
			for i := range x[k].cells {
				if x[k].cells[i] != y[k].cells[i] || x[k].low[i] != y[k].low[i] {
					return false
				}
			}
		}
		return true
	}

	for di, dom := range src.Domains {
		for dj, d := range dom.DIMMs {
			if len(d.Weak) == 0 {
				continue
			}
			for name, ms := range map[string]*MemorySystem{"stamp a": a, "stamp b": b, "clone": clone} {
				if got := ms.Domains[di].DIMMs[dj]; &got.Weak[0] != &d.Weak[0] {
					t.Fatalf("%s: domain %d DIMM %d copied the weak-cell population instead of sharing it", name, di, dj)
				}
			}
		}
	}

	wantSrc, wantB := snap(src), snap(b)
	// Grow and toggle two of the sharers hard, from different streams:
	// new cells, new VRT members, flipped telegraph states.
	age := func(ms *MemorySystem, seed uint64) {
		for _, dom := range ms.Domains {
			GrowWeakCells(dom, 1, 200, model, rng.New(seed))
			ToggleVRTCoarse(dom, 1440, rng.New(seed+1))
		}
	}
	age(a, 5)
	wantA := snap(a)
	age(clone, 7)
	if !same(snap(a), wantA) {
		t.Fatal("growing a clone rewrote cells a sibling stamp had grown")
	}
	if !same(snap(src), wantSrc) {
		t.Fatal("growing a stamp or a clone changed the source system")
	}
	if !same(snap(b), wantB) {
		t.Fatal("growing a sibling stamp changed another stamp's length, cells or state")
	}
	fresh := &MemorySystem{}
	flat.StampInto(fresh)
	if !same(snap(fresh), wantSrc) {
		t.Fatal("growing stamps changed the compiled template")
	}
	// The grown sharer really did grow, so the checks above had
	// something to see.
	if wantA[0].n == wantSrc[0].n {
		t.Fatal("growth drew no cells; the test proves nothing")
	}
}
