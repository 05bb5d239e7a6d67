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
// snapshot serialized through Save and read back must restore an
// ecosystem whose entire forward behaviour — mode entry, every window
// report, the deployment summary, the health-log bytes — is
// bit-identical to a restore of the original in-memory snapshot.
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
	wantVRT, gotVRT := snap.proto.Mem.VRTState(), loaded.proto.Mem.VRTState()
	if !reflect.DeepEqual(wantVRT, gotVRT) {
		t.Fatal("VRT state bits diverged across Save/LoadSnapshot")
	}
	lowCells := 0
	for _, bits := range wantVRT {
		for _, w := range bits {
			lowCells += popcount(w)
		}
	}
	if lowCells == 0 {
		t.Fatal("no VRT cell sits in its low state; the bit comparison proves too little")
	}

	var logA, logB bytes.Buffer
	a, err := snap.Restore(RestoreOptions{HealthLogOut: &logA})
	if err != nil {
		t.Fatal(err)
	}
	b, err := loaded.Restore(RestoreOptions{HealthLogOut: &logB})
	if err != nil {
		t.Fatal(err)
	}
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
// match the population they describe, or the load fails by name
// instead of restoring a silently wrong memory system.
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
	for name, tamper := range map[string]func(st *snapshotState){
		"missing DIMM": func(st *snapshotState) { st.VRTState = st.VRTState[1:] },
		"short bitset": func(st *snapshotState) { st.VRTState[0] = st.VRTState[0][1:] },
		"stable cell":  func(st *snapshotState) { st.VRTState[0][0] |= stableBit(st) },
	} {
		dec := gob.NewDecoder(bytes.NewReader(buf.Bytes()))
		var version int
		var st snapshotState
		if err := dec.Decode(&version); err != nil {
			t.Fatal(err)
		}
		if err := dec.Decode(&st); err != nil {
			t.Fatal(err)
		}
		tamper(&st)
		var out bytes.Buffer
		enc := gob.NewEncoder(&out)
		if err := enc.Encode(version); err != nil {
			t.Fatal(err)
		}
		if err := enc.Encode(&st); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSnapshot(&out); err == nil || !strings.Contains(err.Error(), "VRT state") {
			t.Fatalf("%s: got %v, want a VRT state refusal", name, err)
		}
	}
}

// stableBit returns the state bit of the first non-VRT cell among the
// first DIMM's first 64 cells.
func stableBit(st *snapshotState) uint64 {
	for i, c := range st.Mem.Domains[0].DIMMs[0].Weak[:64] {
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
// after mode entry (or mid-life) carry hypervisor state the wire form
// does not model and must refuse loudly.
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
