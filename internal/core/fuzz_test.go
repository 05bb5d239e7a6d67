package core

import (
	"bytes"
	"strings"
	"testing"

	"uniserver/internal/workload"
)

// FuzzLoadSnapshot pins the decoder's contract on arbitrary input:
// LoadSnapshot either refuses with a named ("core: ...") error, or
// returns an image that stamps and runs a few runtime windows without
// panicking. Validation at decode is what makes the second half hold —
// a stamp follows every extent and index in the image unchecked.
func FuzzLoadSnapshot(f *testing.F) {
	eco, err := New(lifetimeTestOptions(31))
	if err != nil {
		f.Fatal(err)
	}
	if _, err := eco.PreDeployment(); err != nil {
		f.Fatal(err)
	}
	snap, err := eco.Snapshot()
	if err != nil {
		f.Fatal(err)
	}
	shrinkImage(snap)
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())

	wl := workload.WebFrontend()
	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := LoadSnapshot(bytes.NewReader(data))
		if err != nil {
			if !strings.HasPrefix(err.Error(), "core: ") {
				t.Fatalf("unnamed load error: %v", err)
			}
			return
		}
		e, err := snap.RestoreInto(NewRestoreArena(), RestoreOptions{})
		if err != nil {
			t.Fatalf("validated image failed to stamp: %v", err)
		}
		for w := 0; w < 3; w++ {
			e.RuntimeWindow(wl)
		}
	})
}

// shrinkImage trims a characterized image to a valid one a few
// kilobytes long, so the fuzzer mutates (and minimizes) a small input:
// the first 64 weak cells of each DIMM with their state word, the
// first component's first four health vectors, and the first eight
// hypervisor objects. Every extent a stamp follows is re-based, so the
// trimmed image still loads.
func shrinkImage(s *Snapshot) {
	var low []uint64
	for k := range s.Mem.DIMMs {
		d := &s.Mem.DIMMs[k]
		n := min(len(d.Weak), 64)
		bits := s.Mem.Low[d.LowLo : d.LowLo+(n+63)/64]
		d.Weak = d.Weak[:n]
		d.LowLo = len(low)
		low = append(low, bits...)
		d.LowHi = len(low)
	}
	s.Mem.Low = low

	h := &s.Health
	h.Comps = h.Comps[:1] // laid out first: its vectors start at 0
	c := &h.Comps[0]
	c.VecHi = min(c.VecHi, 4)
	c.WinStart = min(c.WinStart, c.VecHi)
	h.Vecs = h.Vecs[:c.VecHi]
	sens, errs := 0, 0
	for _, v := range h.Vecs {
		sens, errs = max(sens, v.SensHi), max(errs, v.ErrHi)
	}
	h.Sensors, h.Errs = h.Sensors[:sens], h.Errs[:errs]

	s.Hyp.Objects = s.Hyp.Objects[:8]
}
