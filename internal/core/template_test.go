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

// TestTemplateRestoreEquivalence pins the compiled fast path to the
// reference implementation: an ecosystem stamped from a compiled
// template must be indistinguishable — window by window, bit by bit —
// from one deep-restored by Snapshot.Restore, across ambients, on a
// cold arena, on a warm arena, and on an arena left dirty by a full
// deployment of the previous occupant.
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
				tmpl := snap.Compile()
				ropts := RestoreOptions{AmbientCPUC: amb.cpu, AmbientDIMMC: amb.dimm}

				legacy, err := snap.Restore(ropts)
				if err != nil {
					t.Fatal(err)
				}
				want := deploymentTrace(t, legacy, windows)

				arena := NewRestoreArena()
				// Cold stamp, warm stamp, dirty re-stamp: each must
				// reproduce the reference trace exactly. Each trace run
				// leaves the arena ecosystem fully mutated (aged silicon,
				// spent streams, advanced clock), so every iteration after
				// the first also proves the stamp overwrites all of it.
				for pass, label := range []string{"cold", "warm", "dirty"} {
					stamped, err := tmpl.RestoreInto(arena, ropts)
					if err != nil {
						t.Fatal(err)
					}
					if got := deploymentTrace(t, stamped, windows); got != want {
						t.Fatalf("pass %d (%s): template restore diverged from legacy restore:\n--- legacy ---\n%s--- template ---\n%s",
							pass, label, want, got)
					}
				}
			})
		}
	}
}

// TestTemplateRestoreHealthLogBytes pins the per-node log surface: the
// JSON-lines health log a stamped ecosystem writes during deployment
// must be byte-identical to the legacy restore's, since the fleet's
// golden health logs are fingerprinted from these bytes.
func TestTemplateRestoreHealthLogBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 7)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := snap.Compile()

	run := func(e *Ecosystem) {
		t.Helper()
		if _, err := e.RunDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend(), 25); err != nil {
			t.Fatal(err)
		}
	}
	var legacyLog, stampLog bytes.Buffer
	legacy, err := snap.Restore(RestoreOptions{HealthLogOut: &legacyLog})
	if err != nil {
		t.Fatal(err)
	}
	run(legacy)

	arena := NewRestoreArena()
	if _, err := tmpl.RestoreInto(arena, RestoreOptions{}); err != nil {
		t.Fatal(err) // cold stamp; the warm stamp below is the path under test
	}
	stamped, err := tmpl.RestoreInto(arena, RestoreOptions{HealthLogOut: &stampLog})
	if err != nil {
		t.Fatal(err)
	}
	run(stamped)

	if !bytes.Equal(legacyLog.Bytes(), stampLog.Bytes()) {
		t.Fatalf("health-log bytes diverged (legacy %d bytes, template %d bytes)",
			legacyLog.Len(), stampLog.Len())
	}
}

// TestTemplateRestoreReseed pins the archetype path through the
// template: stamp + Reseed must equal legacy restore + Reseed, stream
// for stream.
func TestTemplateRestoreReseed(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 5)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := snap.Compile()
	const seed = 1234

	legacy, err := snap.Restore(RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := legacy.Reseed(seed); err != nil {
		t.Fatal(err)
	}
	want := deploymentTrace(t, legacy, 30)

	arena := NewRestoreArena()
	if _, err := tmpl.RestoreInto(arena, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	stamped, err := tmpl.RestoreInto(arena, RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := stamped.Reseed(seed); err != nil {
		t.Fatal(err)
	}
	if got := deploymentTrace(t, stamped, 30); got != want {
		t.Fatalf("reseeded template restore diverged:\n--- legacy ---\n%s--- template ---\n%s", want, got)
	}
}

// TestTemplateRestoreEpochBoundary pins the lifetime-engine capture
// window: a snapshot taken on a fast-forward epoch boundary after an
// in-field re-characterization (the AVATAR growth path: aged silicon,
// grown VRT state, refreshed margins) must compile and stamp exactly
// as it deep-restores.
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
	tmpl := snap.Compile()

	legacy, err := snap.Restore(RestoreOptions{AmbientCPUC: 33, AmbientDIMMC: 39})
	if err != nil {
		t.Fatal(err)
	}
	want := deploymentTrace(t, legacy, 30)

	arena := NewRestoreArena()
	ropts := RestoreOptions{AmbientCPUC: 33, AmbientDIMMC: 39}
	if _, err := tmpl.RestoreInto(arena, ropts); err != nil {
		t.Fatal(err)
	}
	stamped, err := tmpl.RestoreInto(arena, ropts)
	if err != nil {
		t.Fatal(err)
	}
	if got := deploymentTrace(t, stamped, 30); got != want {
		t.Fatalf("epoch-boundary template restore diverged:\n--- legacy ---\n%s--- template ---\n%s", want, got)
	}
}

// TestTemplateRestoreIndependence pins the alias-free property across
// arenas: running one stamped node to completion (mutating silicon
// aging, VRT telegraph state, health history, hypervisor counters,
// stream positions) must leave the template — and nodes stamped from
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
	tmpl := snap.Compile()

	a, b := NewRestoreArena(), NewRestoreArena()
	stamp := func(ar *RestoreArena) *Ecosystem {
		t.Helper()
		e, err := tmpl.RestoreInto(ar, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	traceA := deploymentTrace(t, stamp(a), 30)
	// b stamps only after a's node fully mutated itself; bleed into the
	// shared template would show up here.
	traceB := deploymentTrace(t, stamp(b), 30)
	if traceA != traceB {
		t.Fatalf("sibling arena stamps diverged — template state is shared mutable:\n--- first ---\n%s--- second ---\n%s",
			traceA, traceB)
	}
	// Re-stamping the dirty arenas must still reproduce the original.
	if traceC := deploymentTrace(t, stamp(a), 30); traceC != traceA {
		t.Fatalf("re-stamp after a full deployment diverged:\n--- before ---\n%s--- after ---\n%s",
			traceA, traceC)
	}
	// And the legacy path still sees the pristine snapshot.
	legacy, err := snap.Restore(RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if traceL := deploymentTrace(t, legacy, 30); traceL != traceA {
		t.Fatalf("snapshot mutated by template stamps:\n--- legacy ---\n%s--- stamped ---\n%s",
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
		{"legacy restore", func() *Ecosystem {
			e, err := snap.Restore(RestoreOptions{})
			if err != nil {
				t.Fatal(err)
			}
			return e
		}},
	} {
		if got := deploymentTrace(t, tc.eco(), 30); got != traceA {
			t.Fatalf("%s diverged after a sibling aged its shared state:\n--- before ---\n%s--- after ---\n%s",
				tc.label, traceA, got)
		}
	}
}

// TestTemplateRestoreConcurrentAging stamps four nodes from one
// template on four goroutines and ages every one through the paths
// that reach shared state, all at once. Run under -race it proves no
// stamp writes storage another stamp or the template reads; afterwards
// a fresh stamp must still reproduce the pristine trace.
func TestTemplateRestoreConcurrentAging(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 17)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	tmpl := snap.Compile()
	restored, err := snap.Restore(RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := deploymentTrace(t, restored, 20)

	const goroutines = 4
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			arena := NewRestoreArena()
			for pass := 0; pass < 2; pass++ { // cold, then warm stamp
				e, err := tmpl.RestoreInto(arena, RestoreOptions{})
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
	fresh, err := tmpl.RestoreInto(NewRestoreArena(), RestoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := deploymentTrace(t, fresh, 20); got != want {
		t.Fatalf("concurrently aged stamps leaked into the template:\n--- want ---\n%s--- got ---\n%s", want, got)
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

// TestTemplateRestoreAcrossTemplates pins arena reuse across
// templates of different parts — what a worker does in a multi-bin
// archetype fleet: stamps alternating between an i5 and an i7 template
// on one arena (whose health logs name different components) must each
// reproduce their own template's legacy-restore trace.
func TestTemplateRestoreAcrossTemplates(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	type bin struct {
		tmpl *RestoreTemplate
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
		legacy, err := snap.Restore(RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		bins = append(bins, bin{tmpl: snap.Compile(), want: deploymentTrace(t, legacy, 20)})
	}
	arena := NewRestoreArena()
	for pass, k := range []int{0, 1, 0, 1, 1, 0} {
		e, err := bins[k].tmpl.RestoreInto(arena, RestoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := deploymentTrace(t, e, 20); got != bins[k].want {
			t.Fatalf("pass %d (template %d) diverged from its legacy restore:\n--- want ---\n%s--- got ---\n%s",
				pass, k, bins[k].want, got)
		}
	}
}
