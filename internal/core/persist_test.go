package core

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"strings"
	"testing"

	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// TestSnapshotDiskRoundTrip is the disk-spill correctness pin: a
// snapshot serialized through Save and read back must stamp an
// ecosystem whose entire forward behaviour — mode entry, every window
// report, the deployment summary, the health-log bytes — is
// bit-identical to a stamp of the original in-memory image.
func TestSnapshotDiskRoundTrip(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, err := New(lifetimeTestOptions(21))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eco.PreDeployment(); err != nil {
		t.Fatal(err)
	}
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	// The telegraph states travel beside the population since format
	// 2; every DIMM's bits must come back exactly.
	if !reflect.DeepEqual(snap.Mem.Low, loaded.Mem.Low) {
		t.Fatal("VRT state bits diverged across Save/LoadSnapshot")
	}
	lowCells := 0
	for _, w := range snap.Mem.Low {
		lowCells += popcount(w)
	}
	if lowCells == 0 {
		t.Fatal("no VRT cell sits in its low state; the bit comparison proves too little")
	}

	var logA, logB bytes.Buffer
	a := coldRestore(t, snap, RestoreOptions{HealthLogOut: &logA})
	b := coldRestore(t, loaded, RestoreOptions{HealthLogOut: &logB})
	wl := workload.WebFrontend()
	da, err := a.StartDeployment(vfr.ModeHighPerformance, 0.01, wl)
	if err != nil {
		t.Fatal(err)
	}
	db, err := b.StartDeployment(vfr.ModeHighPerformance, 0.01, wl)
	if err != nil {
		t.Fatal(err)
	}
	// Include a gap so the deserialized stream positions, VRT index
	// and stress schedule all get exercised, not just the first
	// windows.
	gap := Gap{Days: 80, Duty: 0.6, AmbientCPUC: 35, AmbientDIMMC: 41}
	for _, d := range []*Deployment{da, db} {
		for w := 0; w < 6; w++ {
			if _, err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if err := d.FastForward(gap); err != nil {
			t.Fatal(err)
		}
		if _, err := d.MaybeRecharacterize(); err != nil {
			t.Fatal(err)
		}
		for w := 0; w < 6; w++ {
			if _, err := d.Step(); err != nil {
				t.Fatal(err)
			}
		}
	}
	sa, sb := da.Summary(), db.Summary()
	if !reflect.DeepEqual(sa, sb) {
		t.Fatalf("deserialized snapshot diverged from the in-memory one:\n%+v\n%+v", sa, sb)
	}
	if sa.Recharacterized == 0 {
		t.Fatal("round trip exercised no re-characterization; the comparison proves too little")
	}
	if !bytes.Equal(logA.Bytes(), logB.Bytes()) {
		t.Fatal("health-log bytes diverged between in-memory and disk restores")
	}
	if a.Table().Len() != b.Table().Len() {
		t.Fatalf("EOP tables diverged: %d vs %d components", a.Table().Len(), b.Table().Len())
	}
}

func popcount(w uint64) int {
	n := 0
	for ; w != 0; w &= w - 1 {
		n++
	}
	return n
}

// TestLoadSnapshotValidatesVRTState: state bits from the wire must
// match the population they describe, and every other extent or index
// a stamp follows must lie inside the image, or the load fails by name
// instead of restoring a silently wrong ecosystem (or panicking in a
// later stamp).
func TestLoadSnapshotValidatesVRTState(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco := characterized(t, 23)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := snap.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for name, tc := range map[string]struct {
		tamper func(s *Snapshot)
		want   string
	}{
		"short bitset":  {func(s *Snapshot) { s.Mem.DIMMs[0].LowHi-- }, "VRT state"},
		"missing words": {func(s *Snapshot) { s.Mem.Low = s.Mem.Low[:len(s.Mem.Low)-1] }, "VRT state"},
		"stable cell":   {func(s *Snapshot) { s.Mem.Low[s.Mem.DIMMs[0].LowLo] |= stableBit(s) }, "VRT state"},
		"missing DIMM":  {func(s *Snapshot) { s.Mem.DIMMs = s.Mem.DIMMs[1:] }, "DIMM extent"},
		"vector extent": {func(s *Snapshot) { s.Health.Comps[0].VecHi = len(s.Health.Vecs) + 1 }, "vector extent"},
		"sensor extent": {func(s *Snapshot) { s.Health.Vecs[0].SensHi = len(s.Health.Sensors) + 1 }, "sensor extent"},
		"alloc domain":  {func(s *Snapshot) { s.Hyp.Alloc.Allocations[0].Domain = len(s.Mem.Domains) }, "domain"},
		"chip cores":    {func(s *Snapshot) { s.Chip.Cores = s.Chip.Cores[1:] }, "cores"},
	} {
		dec := gob.NewDecoder(bytes.NewReader(buf.Bytes()))
		var version int
		var st Snapshot
		if err := dec.Decode(&version); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&st); err != nil {
			t.Fatal(err)
		}
		tc.tamper(&st)
		var out bytes.Buffer
		enc := gob.NewEncoder(&out)
		if err := enc.Encode(version); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&st); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(&out); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("%s: got %v, want a %q refusal", name, err, tc.want)
		}
	}
}

// stableBit returns the state bit of the first non-VRT cell among the
// first DIMM's first 64 cells.
func stableBit(s *Snapshot) uint64 {
	for i, c := range s.Mem.DIMMs[0].Weak[:64] {
		if c.AltRetentionSec == 0 {
			return 1 << uint(i)
		}
	}
	panic("no stable cell among the first 64")
}

// TestLoadSnapshotRefusesMismatchedVersion pins the version gate.
func TestLoadSnapshotRefusesMismatchedVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(SnapshotFormatVersion + 1); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSnapshot(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("mismatched snapshot version accepted")
	}
}

// TestSaveRefusesPostDeploymentState: disk persistence covers the
// pre-deployment characterization checkpoint only; snapshots taken
// after mode entry (or mid-life) carry deployment state the cache key
// does not describe and must refuse loudly.
func TestSaveRefusesPostDeploymentState(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, err := New(lifetimeTestOptions(22))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eco.PreDeployment(); err != nil {
		t.Fatal(err)
	}
	if _, err := eco.EnterMode(vfr.ModeHighPerformance, 0.01, workload.WebFrontend()); err != nil {
		t.Fatal(err)
	}
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if err := snap.Save(&bytes.Buffer{}); err == nil {
		t.Fatal("serialized a snapshot taken after mode entry")
	}
}
