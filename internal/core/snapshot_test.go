package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"uniserver/internal/rng"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// deploymentTrace runs a supervised deployment on the ecosystem and
// serializes everything observable about it — every window report
// field, the per-window predicted failure probability (bit-exact), and
// the final summary — so two ecosystems produce equal traces iff their
// streams never diverged by a single draw.
func deploymentTrace(t *testing.T, eco *Ecosystem, windows int) string {
	t.Helper()
	d, err := eco.StartDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend())
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for w := 0; w < windows; w++ {
		rep, err := d.Step()
		if err != nil {
			t.Fatal(err)
		}
		fp, err := eco.PredictedFailProb()
		if err != nil {
			t.Fatal(err)
		}
		dram := 0
		for _, n := range rep.DRAMHits {
			dram += n
		}
		fmt.Fprintf(&b, "w=%d crash=%t corr=%d dram=%d alarm=%d temp=%x acts=%d pend=%d fp=%x\n",
			w, rep.Crashed, rep.Correctable, dram, rep.ThermalAlarm,
			math.Float64bits(rep.CPUTempC), len(rep.Actions), rep.PendingTests,
			math.Float64bits(fp))
	}
	fmt.Fprintf(&b, "summary=%+v\n", d.Summary())
	fmt.Fprintf(&b, "clock=%v mode=%v point=%v temps=%v,%v\n",
		eco.Clock.Now(), eco.Mode(), eco.Hypervisor.Point(),
		tempBits(eco.cpuTherm.TempC), tempBits(eco.memTherm.TempC))
	return b.String()
}

func tempBits(c float64) uint64 { return math.Float64bits(c) }

// TestSnapshotRestoreEquivalence is the clone-equivalence contract the
// characterization cache rests on: an ecosystem restored from a
// post-characterization snapshot must be indistinguishable — window by
// window, bit by bit — from one freshly built and characterized with
// the same options, including when the restore re-seats the thermal
// nodes at a different ambient than the snapshot source was built
// with (that is what lets cells differing only in environment share
// one characterization).
func TestSnapshotRestoreEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	const windows = 40
	for _, seed := range []uint64{3, 19} {
		for _, amb := range []struct{ cpu, dimm float64 }{{0, 0}, {38, 44}} {
			name := fmt.Sprintf("seed=%d/ambient=%v", seed, amb.cpu)
			t.Run(name, func(t *testing.T) {
				// Fresh path: built at the cell's ambient, characterized.
				fopts := smallOptions(seed)
				fopts.AmbientCPUC, fopts.AmbientDIMMC = amb.cpu, amb.dimm
				fresh, err := New(fopts)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := fresh.PreDeployment(); err != nil {
					t.Fatal(err)
				}

				// Cached path: characterized at the DEFAULT ambient,
				// snapshotted, restored at the cell's ambient.
				proto, err := New(smallOptions(seed))
				if err != nil {
					t.Fatal(err)
				}
				if _, err := proto.PreDeployment(); err != nil {
					t.Fatal(err)
				}
				snap, err := proto.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				restored := coldRestore(t, snap, RestoreOptions{AmbientCPUC: amb.cpu, AmbientDIMMC: amb.dimm})

				want := deploymentTrace(t, fresh, windows)
				got := deploymentTrace(t, restored, windows)
				if got != want {
					t.Fatalf("restored deployment diverged from fresh characterization:\n--- fresh ---\n%s--- restored ---\n%s",
						want, got)
				}
			})
		}
	}
}

// TestSnapshotRestoresAreIndependent pins the alias-free property:
// multiple restores from one snapshot must not share any mutable
// state, so running one to completion (mutating its silicon aging,
// DRAM VRT states, healthlog history, hypervisor counters and rng
// positions) must leave a sibling's and the snapshot's own behaviour
// untouched. The image is equally detached from its live source:
// driving the source through every path that writes characterized
// state — a deployment, weak-cell growth across a fast-forward, an
// in-field re-characterization, a protection relabel, and in-place
// writes to its published history tables and virus archive — must not
// change what a later stamp sees.
func TestSnapshotRestoresAreIndependent(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 5)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	restore := func() *Ecosystem { return coldRestore(t, snap, RestoreOptions{}) }
	wantStress := stressDigest(restore())
	a, b := restore(), restore()
	traceA := deploymentTrace(t, a, 30)
	// b runs only after a has fully mutated itself; any sharing would
	// make its trace differ from a's.
	traceB := deploymentTrace(t, b, 30)
	if traceA != traceB {
		t.Fatalf("sibling restores diverged — snapshot restores share mutable state:\n--- first ---\n%s--- second ---\n%s",
			traceA, traceB)
	}
	// A third restore taken after both runs must still match: the
	// snapshot itself was not written through by its children.
	traceC := deploymentTrace(t, restore(), 30)
	if traceC != traceA {
		t.Fatalf("snapshot state was mutated by its restores:\n--- before ---\n%s--- after ---\n%s",
			traceA, traceC)
	}
	// And the ecosystem the snapshot was taken from is equally
	// unaffected by all of the above.
	traceOrig := deploymentTrace(t, eco, 30)
	if traceOrig != traceA {
		t.Fatalf("snapshot source diverged from its restores:\n--- source ---\n%s--- restore ---\n%s",
			traceOrig, traceA)
	}

	// Now age the live source through everything that reaches
	// characterized state, then write its published tables and archive
	// in place: only an image that owns its copies survives this.
	if err := ageSharedState(eco); err != nil {
		t.Fatal(err)
	}
	hist := eco.Stress.History()
	if len(hist) < 2 {
		t.Fatal("source did not re-characterize; the aging proves too little")
	}
	for _, vec := range hist {
		for _, comp := range vec.Table.Components() {
			m, err := vec.Table.Lookup(comp)
			if err != nil {
				t.Fatal(err)
			}
			m.Safe.VoltageMV += 7
			vec.Table.Set(m)
		}
	}
	entries := eco.Stress.Archive().Entries()
	if len(entries) == 0 {
		t.Fatal("source archive is empty; the archive check proves nothing")
	}
	for _, en := range entries {
		en.Fitness++
		if err := eco.Stress.Archive().Put(en); err != nil {
			t.Fatal(err)
		}
	}
	if got := deploymentTrace(t, restore(), 30); got != traceA {
		t.Fatalf("mutating the live source changed later stamps:\n--- before ---\n%s--- after ---\n%s", traceA, got)
	}
	if got := stressDigest(restore()); got != wantStress {
		t.Fatalf("mutating the live source changed the image's StressLog state:\n--- before ---\n%s--- after ---\n%s",
			wantStress, got)
	}
}

// coldRestore stamps the snapshot into a fresh arena: the cold stamp
// every test uses as its restore of reference.
func coldRestore(t *testing.T, snap *Snapshot, opts RestoreOptions) *Ecosystem {
	t.Helper()
	e, err := snap.RestoreInto(NewRestoreArena(), opts)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// stressDigest renders the StressLog state a stamp copies out of the
// image: every published table of the history and the virus archive.
func stressDigest(e *Ecosystem) string {
	var b strings.Builder
	for i, vec := range e.Stress.History() {
		for _, comp := range vec.Table.Components() {
			m, _ := vec.Table.Lookup(comp)
			fmt.Fprintf(&b, "history %d: %+v\n", i, m)
		}
	}
	for _, en := range e.Stress.Archive().Entries() {
		fmt.Fprintf(&b, "archive: %+v\n", en)
	}
	return b.String()
}

// TestSnapshotRefusesMidDeployment pins the capture-window guard:
// a restore re-derives thermal state from ambient, which is only exact
// before the first runtime window, so a later Snapshot must fail
// loudly instead of producing restores that silently diverge.
func TestSnapshotRefusesMidDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 11)
	if _, err := eco.Snapshot(); err != nil {
		t.Fatalf("pre-deployment snapshot refused: %v", err)
	}
	if _, err := eco.RunDeployment(vfr.ModeHighPerformance, 0.01, workload.WebFrontend(), 3); err != nil {
		t.Fatal(err)
	}
	if _, err := eco.Snapshot(); err == nil {
		t.Fatal("mid-deployment snapshot accepted; restores would silently lose thermal state")
	}
}

// restoreAllocBudget fences the allocation count of one cold stamp —
// a restore into a fresh arena, which builds the whole ecosystem graph.
// The dominant terms are the per-DIMM VRT state bits, the HealthLog's
// retained characterization vectors (two slabs plus one history per
// component) and the StressLog history tables; the weak-cell
// populations and the hypervisor inventory are shared, not copied, so
// the count stays low. If this fence breaks, a stamp started copying
// element-wise (or deep-copying something it used to bulk-copy) — fix
// the stamp, don't raise the fence.
const restoreAllocBudget = 400

// templateRestoreAllocBudget fences the steady-state allocation count
// of a warm stamp — the cost every cached fleet node actually pays.
// Everything is stamped into reused arena storage; the only survivors
// are the two thermal-node constructions of the ambient re-seat
// (measured: 2). If this fence breaks, a stamp started allocating per
// element — fix the stamp, don't raise the fence.
const templateRestoreAllocBudget = 4

func TestSnapshotRestoreAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 7)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(20, func() {
		if _, err := snap.RestoreInto(NewRestoreArena(), RestoreOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RestoreInto (cold, fresh arena): %.0f allocs (budget %d)", avg, restoreAllocBudget)
	if avg > restoreAllocBudget {
		t.Fatalf("cold stamp allocates %.0f, budget is %d — the cold path regressed",
			avg, restoreAllocBudget)
	}

	// The steady state: near zero allocations once the arena is warm.
	arena := NewRestoreArena()
	if _, err := snap.RestoreInto(arena, RestoreOptions{}); err != nil {
		t.Fatal(err)
	}
	warm := testing.AllocsPerRun(50, func() {
		if _, err := snap.RestoreInto(arena, RestoreOptions{}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("RestoreInto (warm): %.0f allocs (budget %d)", warm, templateRestoreAllocBudget)
	if warm > templateRestoreAllocBudget {
		t.Fatalf("warm template stamp allocates %.0f, budget is %d — the stamp path regressed",
			warm, templateRestoreAllocBudget)
	}
}

// TestReseedRepositionsStreams pins the archetype-clone hook exactly:
// after Reseed(seed), the main stream sits at precisely the state a
// fresh New(seed) ecosystem carries into deployment (construction and
// PreDeployment consume only labeled child streams), and the machine's
// measurement stream sits at the "machine/runtime" labeled split of
// the same seed — repositioned in place, so the StressLog daemon's
// machine reference observes it too. Mid-epoch reseeds are refused for
// the same reason mid-epoch snapshots are.
func TestReseedRepositionsStreams(t *testing.T) {
	if testing.Short() {
		t.Skip("characterization is slow; skipping in -short")
	}
	eco, _ := readyEcosystem(t, 3)
	snap, err := eco.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	clone := coldRestore(t, snap, RestoreOptions{})
	const seed = 99
	if err := clone.Reseed(seed); err != nil {
		t.Fatal(err)
	}
	if got, want := clone.src.State(), rng.New(seed).State(); got != want {
		t.Fatalf("main stream at %#x after reseed, want fresh New(%d) state %#x", got, seed, want)
	}
	if got, want := clone.Machine.StreamState(), rng.New(seed).SplitLabeled("machine/runtime").State(); got != want {
		t.Fatalf("machine stream at %#x after reseed, want labeled split %#x", got, want)
	}
	// The characterized state stays the bin's: reseeding must not touch
	// the published table or the trained model.
	if clone.table == nil || clone.advisor == nil {
		t.Fatal("reseed dropped characterized state")
	}

	// A reseeded clone is deployable and deterministic in its new seed:
	// two restores reseeded alike must trace identically.
	clone2 := coldRestore(t, snap, RestoreOptions{})
	if err := clone2.Reseed(seed); err != nil {
		t.Fatal(err)
	}
	if a, b := deploymentTrace(t, clone, 10), deploymentTrace(t, clone2, 10); a != b {
		t.Fatalf("same-seed reseeded clones diverged:\n--- a ---\n%s--- b ---\n%s", a, b)
	}

	// Mid-epoch refusal: once runtime windows have run, the streams are
	// entangled with thermal state a reseed cannot reposition.
	if err := clone.Reseed(7); err == nil {
		t.Fatal("mid-deployment reseed accepted")
	}
}
