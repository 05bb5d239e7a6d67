// Command perfbench is the repository's benchmark: it runs one named
// workload against the simulator's public Go API for a fixed host-time
// budget, checks every output against pinned fingerprints, and prints
// its metrics as one JSON object on the last line of standard output.
// With -trace 1 it also re-runs the workload through a traced driver
// that splits host time by layer. See README.md.
package main

import (
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// golden.json pins each workload's pass fingerprint (sha256) per
// workload seed, as produced by -pin.
//
//go:embed golden.json
var goldenJSON []byte

// Set-up timing. Before each pass a run times extra set-ups, at least
// setupMinReps and until they add up to setupBatch; the pass
// contributes one setup_s sample, the mean of those and its own
// set-up, timed like a benchmark loop times a short operation. A
// single set-up lasts well under a millisecond, about as long as the
// host's scheduling hiccups on a shared VM, so single samples came out
// as either fast or slow, and their median flipped between the two
// from run to run. Means over batches of this length average the
// hiccups instead, and the batches are spread over the whole run.
const (
	setupMinReps = 10
	setupBatch   = 40 * time.Millisecond
)

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "host seconds to measure for")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from traced runs")
		workdir = flag.String("workdir", ".bench_build/perfbench-work", "directory for result stores")
		pin     = flag.Int("pin", 0, "print the pass fingerprints of seeds 1..N as golden.json entries and exit")
	)
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 2
	}
	e := env{seed: *seed, workers: runtime.GOMAXPROCS(0), workdir: *workdir}
	if *pin > 0 {
		return pinSeeds(w, e, *pin)
	}
	var golden map[string]map[string]string
	if err := json.Unmarshal(goldenJSON, &golden); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: golden.json:", err)
		return 2
	}
	want := golden[w.name][strconv.FormatUint(*seed, 10)]
	if want == "" {
		fmt.Printf("seed %d has no pinned fingerprint; checking passes against each other only\n", *seed)
	}
	budget := time.Duration(*seconds * float64(time.Second))
	var (
		res result
		err error
	)
	if *trace == 1 {
		res, err = measureTraced(w, e, budget, want)
	} else {
		res, err = measure(w, e, budget, want)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	for _, l := range res.lines {
		fmt.Println(l)
	}
	out, err := json.Marshal(res.json())
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		return 1
	}
	fmt.Println(string(out))
	if !res.correct() {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %d of %d operations failed\n", w.name, res.ops.failed(), res.ops.attempted)
		return 1
	}
	return 0
}

// metric is one reported figure.
type metric struct {
	name, unit string
	value      float64
}

type result struct {
	ops     tally
	metrics []metric
	lines   []string
}

func (r result) correct() bool { return r.ops.attempted > 0 && r.ops.failed() == 0 }

func (r result) json() map[string]any {
	m := make(map[string]any, len(r.metrics))
	for _, x := range r.metrics {
		m[x.name] = map[string]any{"value": x.value, "unit": x.unit}
	}
	return map[string]any{
		"correct": r.correct(), "attempted": r.ops.attempted, "failed": r.ops.failed(), "metrics": m,
	}
}

// pass sets the workload up, timing the set-up, and runs it once.
func pass(w benchWorkload, e env, sample func(func()) uint64) (setup time.Duration, out passOut, peak uint64, err error) {
	start := time.Now()
	r, err := w.setup(e)
	setup = time.Since(start)
	if err != nil {
		return setup, out, 0, fmt.Errorf("set-up: %w", err)
	}
	defer r.close()
	peak = sample(func() { out, err = r.run() })
	return setup, out, peak, err
}

// check compares a pass fingerprint with the pinned one and with the
// run's first pass; on a mismatch every operation of the pass counts
// as wrong.
func check(out *passOut, first *string, want string) {
	if *first == "" {
		*first = out.fingerprint
	}
	if out.fingerprint != *first || (want != "" && out.fingerprint != want) {
		out.ops.errored, out.ops.refused = 0, 0
		out.ops.wrong = out.ops.attempted
	}
}

// measure runs untraced passes until the budget is spent and reports
// the end-to-end metrics.
func measure(w benchWorkload, e env, budget time.Duration, want string) (result, error) {
	var (
		res                             result
		first                           string
		setups, nwRate, cellRate, peaks []float64
		lat                             []float64
		kinds                           []string
	)
	deadline := time.Now().Add(budget)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		// Collect garbage before the set-ups and again before the pass,
		// so that neither pays for what ran before it.
		runtime.GC()
		var batch time.Duration
		reps := 0
		for ; reps < setupMinReps || batch < setupBatch; reps++ {
			start := time.Now()
			r, err := w.setup(e)
			if err != nil {
				return result{}, fmt.Errorf("set-up: %w", err)
			}
			batch += time.Since(start)
			r.close()
		}
		runtime.GC()
		setup, out, peak, err := pass(w, e, peakHeap)
		if err != nil {
			return res, err
		}
		check(&out, &first, want)
		res.ops.merge(out.ops)
		setups = append(setups, (batch+setup).Seconds()/float64(reps+1))
		nwRate = append(nwRate, float64(out.nodeWindows)/out.wall.Seconds())
		cellRate = append(cellRate, float64(out.cells)/out.wall.Seconds())
		peaks = append(peaks, float64(peak)/(1<<20))
		lat = append(lat, out.latMS...)
		kinds = append(kinds, out.kinds...)
	}
	res.metrics = endToEnd(setups, nwRate, cellRate, peaks, lat)
	res.lines = append(res.lines,
		fmt.Sprintf("workload %s seed %d: %d passes, %d requests, %d workers", w.name, e.seed, len(nwRate), len(lat), e.workers),
		fmt.Sprintf("failed_frac %.6g (%d of %d operations)", res.ops.failedFrac(), res.ops.failed(), res.ops.attempted))
	if p, v, ok := tailPercentile(lat); ok {
		res.lines = append(res.lines, fmt.Sprintf("request_p%d_ms %.6g (n=%d, %d above)", p, v, len(lat), len(lat)-(p*len(lat)+99)/100))
	}
	total := sum(lat)
	for _, k := range servedKinds {
		var xs []float64
		for i, kk := range kinds {
			if kk == k {
				xs = append(xs, lat[i])
			}
		}
		if len(xs) > 0 {
			res.lines = append(res.lines, fmt.Sprintf("%s_p50_ms %.6g (n=%d, %.3f of request time)", k, median(xs), len(xs), sum(xs)/total))
		}
	}
	for _, m := range res.metrics {
		res.lines = append(res.lines, fmt.Sprintf("%s %.6g %s", m.name, m.value, m.unit))
	}
	return res, nil
}

// endToEnd reduces a run's samples to the end-to-end metrics: medians
// of the set-up times, of the per-pass rates, of the per-pass peak
// heaps and of every request's latency. A fleet pass is one request,
// and so is a grid pass: a grid's cell latencies fall into two
// clusters, cells that characterize and cells that only stamp, and
// their median sat between the two and swung with the count in each.
// A served submission is one request.
func endToEnd(setups, nwRate, cellRate, peaks, lat []float64) []metric {
	return []metric{
		{"setup_s", "s", median(setups)},
		{"node_windows_per_s", "1/s", median(nwRate)},
		{"cells_per_s", "1/s", median(cellRate)},
		{"peak_heap_mib", "MiB", median(peaks)},
		{"request_p50_ms", "ms", median(lat)},
	}
}

// measureTraced alternates an untraced and a traced pass until the
// budget is spent and reports the per-layer metrics (medians across
// iterations).
func measureTraced(w benchWorkload, e env, budget time.Duration, want string) (result, error) {
	var (
		res   result
		first string
		per   = make(map[string][]float64)
		units = make(map[string]string)
		names []string
		extra []string
	)
	deadline := time.Now().Add(budget)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		runtime.GC()
		var md memDelta
		_, out, _, err := pass(w, e, func(fn func()) uint64 { md = measureMem(fn); return 0 })
		if err != nil {
			return res, err
		}
		check(&out, &first, want)
		res.ops.merge(out.ops)
		runtime.GC()
		tr, err := w.traced(e, out)
		if err != nil {
			return res, fmt.Errorf("traced pass: %w", err)
		}
		res.ops.attempted++
		if tr.mismatches > 0 {
			res.ops.wrong++
			res.lines = append(res.lines, fmt.Sprintf("traced pass %d: %d outputs differ from the untraced run", n, tr.mismatches))
		}
		for _, m := range layerMetrics(tr, out, md, e) {
			if _, ok := units[m.name]; !ok {
				names = append(names, m.name)
				units[m.name] = m.unit
			}
			per[m.name] = append(per[m.name], m.value)
		}
		extra = tr.extra
	}
	for _, name := range names {
		res.metrics = append(res.metrics, metric{name, units[name], median(per[name])})
	}
	res.lines = append(res.lines, fmt.Sprintf("workload %s seed %d: %d traced iterations, %d workers", w.name, e.seed, len(per["trace.overhead_frac"]), e.workers))
	res.lines = append(res.lines, extra...)
	for _, m := range res.metrics {
		res.lines = append(res.lines, fmt.Sprintf("%s %.6g %s", m.name, m.value, m.unit))
	}
	res.lines = append(res.lines, dominantLine(w.own, res.metrics))
	return res, nil
}

// dominantLine compares the summed self-time share of the layers the
// workload was chosen for with the largest share of any other layer.
func dominantLine(own []string, ms []metric) string {
	ownShare, other, otherShare := 0.0, "", 0.0
	for _, m := range ms {
		layer, ok := strings.CutSuffix(m.name, ".share")
		switch {
		case !ok:
		case slices.Contains(own, layer):
			ownShare += m.value
		case m.value > otherShare:
			other, otherShare = layer, m.value
		}
	}
	verdict := "largest"
	if ownShare <= otherShare {
		verdict = "NOT the largest"
	}
	return fmt.Sprintf("self-time share of %s: %.3f, %s; next: %s %.3f",
		strings.Join(own, "+"), ownShare, verdict, other, otherShare)
}

// layerMetrics turns one traced pass (and the untraced pass before it)
// into the per-layer metrics. Every workload reports the same names;
// a layer the workload never enters reports a zero count and share.
func layerMetrics(tr tracedOut, un passOut, md memDelta, e env) []metric {
	ls := tr.rec.layers()
	get := func(names ...string) layerStat {
		var s layerStat
		for _, n := range names {
			if l := ls[n]; l != nil {
				s.count += l.count
				s.units += l.units
				s.busy += l.busy
				s.self += l.self
			}
		}
		return s
	}
	mean := func(s layerStat, unit time.Duration) float64 {
		if s.units == 0 {
			return 0
		}
		return float64(s.busy) / float64(s.units) / float64(unit)
	}
	// attributed is the self time of every span that is a call into a
	// layer; fleet.node is the traced fleet driver's per-node
	// bookkeeping, and
	// campaignd.submit and served.request are request envelopes.
	var attributed, recorded time.Duration
	for name, l := range ls {
		switch name {
		case "campaignd.submit", "served.request":
		case "fleet.node":
			recorded += l.self
		default:
			attributed += l.self
			recorded += l.self
		}
	}
	denom := tr.denom
	if denom == 0 {
		denom = recorded
	}
	share := func(names ...string) float64 {
		if denom == 0 {
			return 0
		}
		return float64(get(names...).self) / float64(denom)
	}
	campaignd := 0.0
	if tr.denom > 0 {
		campaignd = max(0, float64(tr.denom-attributed)/float64(tr.denom))
	}
	char, stamp, step, replay := get("core.characterize"), get("core.stamp"), get("core.step"), get("openstack.replay")
	save, load := get("core.persist.save"), get("core.persist.load")
	entryMiB := 0.0
	if save.count > 0 {
		entryMiB = tr.entryBytes / float64(save.count) / (1 << 20)
	}
	cache := un.cache
	if tr.cache != nil {
		cache = *tr.cache
	}
	ratio := func(a, b uint64) float64 {
		if a+b == 0 {
			return 0
		}
		return float64(a) / float64(a+b)
	}
	overheadWall := tr.overheadWall
	if overheadWall == 0 {
		overheadWall = tr.wall
	}
	return []metric{
		{"core.characterize.count", "count", float64(char.count)},
		{"core.characterize.busy_s", "s", char.busy.Seconds()},
		{"core.characterize.mean_ms", "ms", mean(char, time.Millisecond)},
		{"core.characterize.share", "frac", share("core.characterize", "core.snapshot", "core.compile")},
		{"core.snapshot.mean_ms", "ms", mean(get("core.snapshot"), time.Millisecond)},
		{"core.compile.mean_ms", "ms", mean(get("core.compile"), time.Millisecond)},
		{"core.stamp.count", "count", float64(stamp.count)},
		{"core.stamp.busy_s", "s", stamp.busy.Seconds()},
		{"core.stamp.mean_us", "us", mean(stamp, time.Microsecond)},
		{"core.stamp.share", "frac", share("core.stamp")},
		{"core.deploy.mean_us", "us", mean(get("core.deploy"), time.Microsecond)},
		{"core.step.busy_s", "s", step.busy.Seconds()},
		{"core.step.mean_us", "us", mean(step, time.Microsecond)},
		{"core.step.share", "frac", share("core.step")},
		{"core.fast_forward.count", "count", float64(get("core.fast_forward").count)},
		{"core.fast_forward.share", "frac", share("core.fast_forward")},
		{"core.recharacterize.count", "count", float64(get("core.recharacterize").count)},
		{"core.recharacterize.share", "frac", share("core.recharacterize")},
		{"core.persist.saves", "count", float64(save.count)},
		{"core.persist.loads", "count", float64(load.count)},
		{"core.persist.entry_mib", "MiB", entryMiB},
		{"core.persist.share", "frac", share("core.persist.save", "core.persist.load")},
		{"openstack.replay.busy_s", "s", replay.busy.Seconds()},
		{"openstack.replay.mean_us", "us", mean(replay, time.Microsecond)},
		{"openstack.replay.share", "frac", share("openstack.replay")},
		{"resultstore.hits", "count", float64(un.store.Hits)},
		{"resultstore.misses", "count", float64(un.store.Misses)},
		{"resultstore.puts", "count", float64(un.store.Puts)},
		{"resultstore.quarantined", "count", float64(un.store.Quarantined)},
		{"resultstore.hit_ratio", "frac", ratio(un.store.Hits, un.store.Misses)},
		{"resultstore.share", "frac", share("resultstore.get", "resultstore.put", "resultstore.run_put")},
		{"campaignd.share", "frac", campaignd},
		{"fleet.cache.hits", "count", float64(cache.Hits)},
		{"fleet.cache.misses", "count", float64(cache.Misses)},
		{"fleet.cache.coalesced", "count", float64(cache.Coalesced)},
		{"fleet.cache.disk_hits", "count", float64(cache.DiskHits)},
		{"fleet.cache.compiled", "count", float64(cache.Compiled)},
		{"fleet.cache.hit_ratio", "frac", ratio(cache.Hits+cache.DiskHits, cache.Misses)},
		{"fleet.parallel_efficiency", "frac", attributed.Seconds() / (un.wall.Seconds() * float64(e.workers))},
		{"fleet.unattributed_s", "s", (tr.wall*time.Duration(tr.lanes) - attributed).Seconds()},
		{"runtime.alloc_mib", "MiB", float64(md.allocBytes) / (1 << 20)},
		{"runtime.gc_cycles", "count", float64(md.gcCycles)},
		{"runtime.gc_pause_s", "s", md.gcPause.Seconds()},
		{"trace.overhead_frac", "frac", overheadWall.Seconds()/un.wall.Seconds() - 1},
	}
}

// pinSeeds prints one pass fingerprint per seed, in golden.json form.
func pinSeeds(w benchWorkload, e env, n int) int {
	pins := make(map[string]string)
	for s := 1; s <= n; s++ {
		e.seed = uint64(s)
		_, out, _, err := pass(w, e, func(fn func()) uint64 { fn(); return 0 })
		if err == nil && out.ops.failed() > 0 {
			err = errors.New("pass had failed operations")
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %v\n", w.name, s, err)
			return 1
		}
		pins[strconv.Itoa(s)] = out.fingerprint
	}
	b, err := json.MarshalIndent(map[string]map[string]string{w.name: pins}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
