package dram

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"sync"
	"testing"

	"uniserver/internal/rng"
)

// TestStampSharesImmutablePopulation pins the sharing contract of the
// memory image: stamped DIMMs reference the source's weak-cell
// population instead of copying it, and a Grow on one sharer — a
// stamp from this image or from a second image of the same source —
// reallocates rather than writing storage that a sibling, the image or
// the source system can see. Telegraph state stays per DIMM.
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
	again := src.Flatten()
	other := &MemorySystem{}
	again.StampInto(other)

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
			for name, ms := range map[string]*MemorySystem{"stamp a": a, "stamp b": b, "second image": other} {
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
	age(other, 7)
	if !same(snap(a), wantA) {
		t.Fatal("growing a second image's stamp rewrote cells a sibling stamp had grown")
	}
	if !same(snap(src), wantSrc) {
		t.Fatal("growing a stamp changed the source system")
	}
	if !same(snap(b), wantB) {
		t.Fatal("growing a sibling stamp changed another stamp's length, cells or state")
	}
	fresh := &MemorySystem{}
	flat.StampInto(fresh)
	if !same(snap(fresh), wantSrc) {
		t.Fatal("growing stamps changed the image")
	}
	// The grown sharer really did grow, so the checks above had
	// something to see.
	if wantA[0].n == wantSrc[0].n {
		t.Fatal("growth drew no cells; the test proves nothing")
	}
}

// TestDecodedImageStampsGrowIndependently covers images that did not
// come from Flatten: a gob round trip drops the VRT index, Validate
// rebuilds it by append, and gob may hand back a large population with
// spare capacity. Validate must cap both, or two stamps growing at once
// append into one backing array — a data race under -race, and each
// stamp's population or VRT index picks up the other's cells.
func TestDecodedImageStampsGrowIndependently(t *testing.T) {
	model := DefaultRetentionModel()
	src, err := New(Config{Channels: 2, DIMMsPerChannel: 2, DIMMBytes: 1 << 30, DeviceGb: 2, TempC: 45},
		model, rng.New(23))
	if err != nil {
		t.Fatal(err)
	}
	flat := src.Flatten()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&flat); err != nil {
		t.Fatal(err)
	}
	var img FlatMemory
	if err := gob.NewDecoder(&buf).Decode(&img); err != nil {
		t.Fatal(err)
	}
	// Spare capacity, as gob leaves on a large decoded slice.
	for k := range img.DIMMs {
		d := &img.DIMMs[k]
		d.Weak = append(make([]WeakCell, 0, 2*len(d.Weak)+1), d.Weak...)
	}
	if err := img.Validate(); err != nil {
		t.Fatal(err)
	}
	for k, d := range img.DIMMs {
		if cap(d.Weak) != len(d.Weak) || cap(d.vrt) != len(d.vrt) {
			t.Fatalf("DIMM %d: validated image shares uncapped slices (weak %d/%d, vrt %d/%d)",
				k, len(d.Weak), cap(d.Weak), len(d.vrt), cap(d.vrt))
		}
	}

	type view struct {
		cells []WeakCell
		vrt   []int
		low   []uint64
	}
	snap := func(ms *MemorySystem) []view {
		var out []view
		for _, dom := range ms.Domains {
			for _, d := range dom.DIMMs {
				out = append(out, view{append([]WeakCell(nil), d.Weak...), append([]int(nil), d.vrt...),
					append([]uint64(nil), d.low...)})
			}
		}
		return out
	}
	age := func(ms *MemorySystem, seed uint64) {
		for _, dom := range ms.Domains {
			GrowWeakCells(dom, 1, 200, model, rng.New(seed))
			ToggleVRTCoarse(dom, 1440, rng.New(seed+1))
		}
	}
	// Solo references: each stamp grown alone.
	want := map[uint64][]view{}
	for _, seed := range []uint64{5, 7} {
		ms := &MemorySystem{}
		img.StampInto(ms)
		age(ms, seed)
		want[seed] = snap(ms)
	}
	a, b := &MemorySystem{}, &MemorySystem{}
	img.StampInto(a)
	img.StampInto(b)
	var wg sync.WaitGroup
	for seed, ms := range map[uint64]*MemorySystem{5: a, 7: b} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			age(ms, seed)
		}()
	}
	wg.Wait()
	for seed, ms := range map[uint64]*MemorySystem{5: a, 7: b} {
		if !reflect.DeepEqual(snap(ms), want[seed]) {
			t.Fatalf("stamp grown with seed %d differs from the same stamp grown alone", seed)
		}
		for _, dom := range ms.Domains {
			for _, d := range dom.DIMMs {
				for _, i := range d.vrt {
					if i >= len(d.Weak) || d.Weak[i].AltRetentionSec == 0 {
						t.Fatalf("stamp grown with seed %d indexes cell %d, not one of its VRT cells", seed, i)
					}
				}
			}
		}
	}
	if reflect.DeepEqual(want[5], want[7]) {
		t.Fatal("the two seeds grew identical populations; the test proves nothing")
	}
}
