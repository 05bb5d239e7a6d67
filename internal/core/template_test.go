package core

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"uniserver/internal/cpu"
	"uniserver/internal/hypervisor"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// TestTemplateRestoreEquivalence pins the stamp path to the direct
// path: an ecosystem stamped from a snapshot image must be
// indistinguishable — window by window, bit by bit — from one freshly
// built and characterized at the same ambient, on a cold arena, on a
// warm arena, and on an arena left dirty by a full deployment of the
// previous occupant.
func TestTemplateRestoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	const windows = 40
	for _, seed := range []uint64{3, 19} {
		for _, amb := range []struct{ cpu, dimm float64 }{{0, 0}, {38, 44}} {
			t.Run(fmt.Sprintf("seed=%d/ambient=%v", seed, amb.cpu), func(t *testing.T) {
				eco, _ := readyEcosystem(t, seed)
				snap, err := eco.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				ropts := RestoreOptions{AmbientCPUC: amb.cpu, AmbientDIMMC: amb.dimm}

				fopts := smallOptions(seed)
				fopts.AmbientCPUC, fopts.AmbientDIMMC = amb.cpu, amb.dimm
				fresh, err := New(fopts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fresh.PreDeployment(); err != nil {
					t.Fatal(err)
				}
				want := deploymentTrace(t, fresh, windows)

				arena := NewRestoreArena()
				// Cold stamp, warm stamp, dirty re-stamp: each must
				// reproduce the fresh trace exactly. Each trace run
				// leaves the arena ecosystem fully mutated (aged silicon,
				// spent streams, advanced clock), so every iteration after
				// the first also proves the stamp overwrites all of it.
				for pass, label := range []string{"cold", "warm", "dirty"} {
					stamped, err := snap.RestoreInto(arena, ropts)
					if err != nil {
						t.Fatal(err)
					}
					if got := deploymentTrace(t, stamped, windows); got != want {
						t.Fatalf("pass %d (%s): stamp diverged from fresh characterization:\n--- fresh ---\n%s--- stamp ---\n%s",
							pass, label, want, got)
					}
				}
			})
		}
	}
}

// TestTemplateRestoreHealthLogBytes pins the per-node log surface: the
// JSON-lines health log a stamped ecosystem writes during deployment
// must be byte-identical to what its snapshot source writes running
// the same deployment, since the fleet's golden health logs are
// fingerprinted from these bytes.
func TestTemplateRestoreHealthLogBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	var srcLog, stampLog bytes.Buffer
	opts := smallOptions(7)
	opts.HealthLogOut = &srcLog
	eco, err := New(opts)
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
	charactLines := srcLog.Len()

	run := func(e *Ecosystem) {
		t.Helper()
		if _, err := e.RunDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend(), 25); err != nil {
			t.Fatal(err)
		}
	}
	arena := NewRestoreArena()
	if _, err := snap.RestoreInto(arena, RestoreOptions{}); err != nil {
		t.Fatal(err) // cold stamp; the warm stamp below is the path under test
	}
	stamped, err := snap.RestoreInto(arena, RestoreOptions{HealthLogOut: &stampLog})
	if err != nil {
		t.Fatal(err)
	}
	run(stamped)
	run(eco)

	if want := srcLog.Bytes()[charactLines:]; !bytes.Equal(want, stampLog.Bytes()) {
		t.Fatalf("health-log bytes diverged (source %d bytes, stamp %d bytes)", len(want), stampLog.Len())
	}
	if stampLog.Len() == 0 {
		t.Fatal("the deployment logged nothing; the comparison proves too little")
	}
}

// TestTemplateRestoreReseed pins the archetype path through the
// image: stamp + Reseed must equal the snapshot source reseeded alike,
// stream for stream.
func TestTemplateRestoreReseed(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 5)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	const seed = 1234

	arena := NewRestoreArena()
	if _, err := snap.RestoreInto(arena, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	stamped, err := snap.RestoreInto(arena, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stamped.Reseed(seed); err != nil {
		t.Fatal(err)
	}
	got := deploymentTrace(t, stamped, 30)
	if err := eco.Reseed(seed); err != nil {
		t.Fatal(err)
	}
	if want := deploymentTrace(t, eco, 30); got != want {
		t.Fatalf("reseeded stamp diverged from the reseeded source:\n--- source ---\n%s--- stamp ---\n%s", want, got)
	}
}

// TestTemplateRestoreEpochBoundary pins the lifetime-engine capture
// window: a snapshot taken on a fast-forward epoch boundary after an
// in-field re-characterization (the AVATAR growth path: aged silicon,
// grown VRT state, refreshed margins) must stamp an ecosystem that
// continues exactly as the snapshot source itself does.
func TestTemplateRestoreEpochBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 11)
	d, err := eco.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 15; w++ {
		if _, err := d.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.FastForward(Gap{Days: 60, Duty: 0.5, AmbientCPUC: 33, AmbientDIMMC: 39}); err != nil {
		t.Fatal(err)
	}
	if err := d.RecharacterizeNow(); err != nil {
		t.Fatal(err)
	}
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	arena := NewRestoreArena()
	ropts := RestoreOptions{AmbientCPUC: 33, AmbientDIMMC: 39}
	if _, err := snap.RestoreInto(arena, ropts); err != nil {
		t.Fatal(err)
	}
	stamped, err := snap.RestoreInto(arena, ropts)
	if err != nil {
		t.Fatal(err)
	}
	got := deploymentTrace(t, stamped, 30)
	if want := deploymentTrace(t, eco, 30); got != want {
		t.Fatalf("epoch-boundary stamp diverged from its source:\n--- source ---\n%s--- stamp ---\n%s", want, got)
	}
}

// TestTemplateRestoreIndependence pins the alias-free property across
// arenas: running one stamped node to completion (mutating silicon
// aging, VRT telegraph state, health history, hypervisor counters,
// stream positions) must leave the image — and nodes stamped from
// it afterwards, on the same or other arenas — untouched. The same
// holds after a node writes through every path that reaches the state
// stamps share by reference: weak-cell growth across a fast-forward,
// an in-field re-characterization and a protection relabel.
func TestTemplateRestoreIndependence(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 13)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	a, b := NewRestoreArena(), NewRestoreArena()
	stamp := func(ar *RestoreArena) *Ecosystem {
		t.Helper()
		e, err := snap.RestoreInto(ar, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	traceA := deploymentTrace(t, stamp(a), 30)
	// b stamps only after a's node fully mutated itself; bleed into the
	// shared image would show up here.
	traceB := deploymentTrace(t, stamp(b), 30)
	if traceA != traceB {
		t.Fatalf("sibling arena stamps diverged — image state is shared mutable:\n--- first ---\n%s--- second ---\n%s",
			traceA, traceB)
	}
	// Re-stamping the dirty arenas must still reproduce the original.
	if traceC := deploymentTrace(t, stamp(a), 30); traceC != traceA {
		t.Fatalf("re-stamp after a full deployment diverged:\n--- before ---\n%s--- after ---\n%s",
			traceA, traceC)
	}
	// And a cold stamp on a fresh arena still sees the pristine image.
	if traceL := deploymentTrace(t, coldRestore(t, snap, RestoreOptions{}), 30); traceL != traceA {
		t.Fatalf("image mutated by its stamps:\n--- cold stamp ---\n%s--- warm stamps ---\n%s",
			traceL, traceA)
	}

	wantShared := sharedStateDigest(stamp(b))
	if err := ageSharedState(stamp(a)); err != nil {
		t.Fatal(err)
	}
	if got := sharedStateDigest(stamp(b)); got != wantShared {
		t.Fatalf("aging one stamp changed a sibling's shared state:\n%s\nvs\n%s", got, wantShared)
	}
	for _, tc := range []struct {
		label string
		eco   func() *Ecosystem
	}{
		{"sibling stamp", func() *Ecosystem { return stamp(b) }},
		{"re-stamp of the aged arena", func() *Ecosystem { return stamp(a) }},
		{"cold stamp", func() *Ecosystem { return coldRestore(t, snap, RestoreOptions{}) }},
	} {
		if got := deploymentTrace(t, tc.eco(), 30); got != traceA {
			t.Fatalf("%s diverged after a sibling aged its shared state:\n--- before ---\n%s--- after ---\n%s",
				tc.label, traceA, got)
		}
	}
}

// TestTemplateRestoreConcurrentAging stamps four nodes from one
// image on four goroutines and ages every one through the paths
// that reach shared state, all at once. Run under -race it proves no
// stamp writes storage another stamp or the image reads; afterwards
// a fresh stamp must still reproduce the snapshot source's own trace.
func TestTemplateRestoreConcurrentAging(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 17)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want := deploymentTrace(t, eco, 20)

	const goroutines = 4
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := NewRestoreArena()
			for pass := 0; pass < 2; pass++ { // cold, then warm stamp
				e, err := snap.RestoreInto(arena, RestoreOptions{})
				if err == nil {
					err = ageSharedState(e)
				}
				if err != nil {
					errs[g] = fmt.Errorf("goroutine %d pass %d: %w", g, pass, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
	if got := deploymentTrace(t, coldRestore(t, snap, RestoreOptions{}), 20); got != want {
		t.Fatalf("concurrently aged stamps leaked into the image:\n--- want ---\n%s--- got ---\n%s", want, got)
	}
}

// ageSharedState drives a restored node through every path that writes
// near the state restores share by reference: weak-cell growth over a
// fast-forward gap (DIMM appends), an in-field re-characterization
// (pattern tests and VRT toggles over the shared population) and a
// protection relabel of the whole object inventory.
func ageSharedState(e *Ecosystem) error {
	e.SetWeakGrowth(400)
	d, err := e.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		return err
	}
	for w := 0; w < 5; w++ {
		if _, err := d.Step(); err != nil {
			return err
		}
	}
	if err := d.FastForward(Gap{Days: 30, Duty: 0.5}); err != nil {
		return err
	}
	if err := d.RecharacterizeNow(); err != nil {
		return err
	}
	if e.Hypervisor.Objects().Protect(hypervisor.Categories()...) == 0 {
		return errors.New("protection relabeled nothing; the aging proves too little")
	}
	return nil
}

// sharedStateDigest renders the state restores share by reference:
// every DIMM's weak-cell count, VRT states and the protected footprint.
func sharedStateDigest(e *Ecosystem) string {
	var b strings.Builder
	for _, dom := range e.Mem.Domains {
		for _, d := range dom.DIMMs {
			low := 0
			for i := range d.Weak {
				if d.LowState(i) {
					low++
				}
			}
			fmt.Fprintf(&b, "%s: weak=%d low=%d\n", dom.Name, len(d.Weak), low)
		}
	}
	fmt.Fprintf(&b, "protected=%d\n", e.Hypervisor.Objects().ProtectedBytes())
	return b.String()
}

// TestTemplateRestoreAcrossTemplates pins arena reuse across images
// of different parts — what a worker does in a multi-bin archetype
// fleet: stamps alternating between an i5 and an i7 image on one arena
// (whose health logs name different components) must each reproduce
// the trace of their own image's snapshot source.
func TestTemplateRestoreAcrossTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	type bin struct {
		snap *Snapshot
		want string
	}
	var bins []bin
	for _, part := range []cpu.PartSpec{cpu.PartI5_4200U(), cpu.PartI7_3970X()} {
		opts := smallOptions(29)
		opts.SetPart(part)
		eco, err := New(opts)
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
		bins = append(bins, bin{snap: snap, want: deploymentTrace(t, eco, 20)})
	}
	arena := NewRestoreArena()
	for pass, k := range []int{0, 1, 0, 1, 1, 0} {
		e, err := bins[k].snap.RestoreInto(arena, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := deploymentTrace(t, e, 20); got != bins[k].want {
			t.Fatalf("pass %d (image %d) diverged from its source:\n--- want ---\n%s--- got ---\n%s",
				pass, k, bins[k].want, got)
		}
	}
}
