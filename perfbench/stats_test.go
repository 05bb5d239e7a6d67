package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"
	"time"
)

func TestTailPercentileKeepsTenAbove(t *testing.T) {
	for n := 11; n <= 400; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // distinct, unsorted
		}
		p, v, ok := tailPercentile(xs)
		if 100*(n-10)/n < 50 {
			if ok {
				t.Fatalf("n=%d: got p%d, want no percentile below the median", n, p)
			}
			continue
		}
		if !ok {
			t.Fatalf("n=%d: no percentile", n)
		}
		above := 0
		for _, x := range xs {
			if x > v {
				above++
			}
		}
		if above < 10 {
			t.Fatalf("n=%d: p%d leaves %d samples above, want >= 10", n, p, above)
		}
		// The next percentile up must either exceed p90 or leave fewer
		// than ten samples above it.
		if next := p + 1; next <= 90 && n-(next*n+99)/100 >= 10 {
			t.Fatalf("n=%d: p%d chosen but p%d also keeps ten above", n, p, next)
		}
	}
}

func TestTailPercentileCases(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n, p int
		v    float64
		ok   bool
	}{
		{n: 10, ok: false},
		{n: 19, ok: false},
		{n: 20, p: 50, v: 10, ok: true},
		{n: 50, p: 80, v: 40, ok: true},
		{n: 100, p: 90, v: 90, ok: true},
		{n: 1000, p: 90, v: 900, ok: true},
	} {
		p, v, ok := tailPercentile(seq(c.n))
		if ok != c.ok || (ok && (p != c.p || v != c.v)) {
			t.Errorf("n=%d: got (p%d, %v, %t), want (p%d, %v, %t)", c.n, p, v, ok, c.p, c.v, c.ok)
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd: got %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even: got %v", got)
	}
}

func TestFailedFracCountsEveryFailureKind(t *testing.T) {
	var tl tally
	for _, o := range []outcome{opOK, opErrored, opOK, opRefused, opWrong, opOK, opOK, opOK} {
		tl.add(o)
	}
	if tl.attempted != 8 || tl.errored != 1 || tl.refused != 1 || tl.wrong != 1 {
		t.Fatalf("tally %+v", tl)
	}
	if got := tl.failedFrac(); got != 3.0/8 {
		t.Errorf("failedFrac = %v, want 3/8", got)
	}
	var none tally
	if none.failedFrac() != 0 {
		t.Errorf("empty tally failedFrac = %v", none.failedFrac())
	}
}

func TestCheckCountsWrongFingerprint(t *testing.T) {
	out := passOut{fingerprint: "a"}
	out.ops.add(opOK)
	out.ops.add(opRefused)
	first := ""
	check(&out, &first, "a")
	if out.ops.failed() != 1 {
		t.Fatalf("matching pass: failed %d, want 1 (the refused op)", out.ops.failed())
	}
	bad := passOut{fingerprint: "b"}
	bad.ops.add(opOK)
	bad.ops.add(opOK)
	check(&bad, &first, "")
	if bad.ops.wrong != 2 || bad.ops.failed() != 2 {
		t.Errorf("pass differing from the first: %+v, want both ops wrong", bad.ops)
	}
	pinned := passOut{fingerprint: "a"}
	pinned.ops.add(opOK)
	check(&pinned, &first, "c")
	if pinned.ops.wrong != 1 {
		t.Errorf("pass differing from the pin: %+v, want wrong", pinned.ops)
	}
}

func TestCheckRepliesCountsRepeatFailures(t *testing.T) {
	scripts := [][]request{{
		{kindFresh, "aging-year", 7, 0},
		{kindRepeat, "aging-year", 7, 1},
		{kindRepeat, "aging-year", 7, 1},
		{kindRepeat, "aging-year", 7, 1},
		{kindSibling, "baseline", 7, 2},
	}}
	replies := [][]reply{{
		{sha: "x"},
		{sha: "x", cached: true},
		{sha: "y", cached: true}, // wrong fingerprint
		{sha: "x"},               // not served from the store
		{o: opRefused},
	}}
	_, tl := checkReplies(scripts, replies)
	if tl.attempted != 5 || tl.wrong != 2 || tl.refused != 1 {
		t.Errorf("tally %+v, want 5 attempted, 2 wrong, 1 refused", tl)
	}
}

// TestRunClientsPhases checks that no client starts a phase before
// every client has finished the one before, and that every request
// runs once, in script order per client.
func TestRunClientsPhases(t *testing.T) {
	scripts := [][]request{
		{{phase: 0}, {phase: 0}, {phase: 0}, {phase: 1}, {phase: 2}, {phase: 2}},
		{{phase: 0}, {phase: 1}, {phase: 1}, {phase: 1}, {phase: 2}},
	}
	var mu sync.Mutex
	var order [][2]int
	replies := runClients(scripts, func(c, j int, req request) reply {
		time.Sleep(time.Duration(c+1) * time.Millisecond) // client 1 is slower
		mu.Lock()
		order = append(order, [2]int{c, j})
		mu.Unlock()
		return reply{runID: fmt.Sprint(c, j)}
	})
	if len(order) != 11 {
		t.Fatalf("%d requests ran, want 11", len(order))
	}
	last := -1
	next := []int{0, 0}
	for _, cj := range order {
		c, j := cj[0], cj[1]
		if j != next[c] {
			t.Fatalf("client %d ran request %d, want %d", c, j, next[c])
		}
		next[c]++
		if p := scripts[c][j].phase; p < last {
			t.Fatalf("request %v of phase %d ran after a request of phase %d", cj, p, last)
		} else {
			last = p
		}
		if replies[c][j].runID != fmt.Sprint(c, j) {
			t.Errorf("reply %v misplaced: %q", cj, replies[c][j].runID)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []span{
		{name: "root", start: ms(0), end: ms(100), parent: -1},
		{name: "a", start: ms(10), end: ms(40), parent: 0},
		{name: "a.1", start: ms(15), end: ms(25), parent: 1},
		{name: "b", start: ms(30), end: ms(50), parent: 0},    // overlaps a by 10
		{name: "c", start: ms(90), end: ms(120), parent: 0},   // sticks out by 20
		{name: "d", start: ms(60), end: ms(70), parent: 0},    // disjoint
		{name: "e", start: ms(62), end: ms(68), parent: 0},    // inside d
		{name: "other", start: ms(0), end: ms(5), parent: -1}, // second root
	}
	got := selfTimes(spans)
	// root: children cover [10,50] + [60,70] + [90,100] = 60.
	want := []time.Duration{ms(40), ms(20), ms(10), ms(20), ms(30), ms(10), ms(6), ms(5)}
	if !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestRecorderLayers(t *testing.T) {
	rec := newRecorder()
	tr := rec.track()
	root := tr.begin("fleet.node", 1)
	tr.do("core.stamp", 1, func() error { time.Sleep(2 * time.Millisecond); return nil })
	s := tr.begin("core.step", 1)
	tr.end(s, 30)
	tr.end(root, 1)
	ls := rec.layers()
	if ls["core.step"].units != 30 || ls["core.stamp"].count != 1 {
		t.Fatalf("layers %+v %+v", ls["core.step"], ls["core.stamp"])
	}
	node := ls["fleet.node"]
	if node.self != node.busy-ls["core.stamp"].busy-ls["core.step"].busy {
		t.Errorf("fleet.node self %v, busy %v", node.self, node.busy)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step: every workload, end-to-end metric and
// per-layer metric must appear in both, with the same units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var progNames []string
	for _, w := range workloads {
		progNames = append(progNames, w.name)
	}
	if !slices.Equal(names, progNames) {
		t.Errorf("workloads %v, program has %v", names, progNames)
	}
	same := func(kind string, declared []struct{ Name, Unit string }, ms []metric) {
		if len(declared) != len(ms) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", kind, len(declared), len(ms))
		}
		for i := range min(len(declared), len(ms)) {
			if declared[i].Name != ms[i].name || declared[i].Unit != ms[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					kind, i, declared[i].Name, declared[i].Unit, ms[i].name, ms[i].unit)
			}
		}
	}
	one := []float64{1}
	same("end_to_end", bj.EndToEnd, endToEnd(one, one, one, one, one))
	same("per_layer", bj.PerLayer, layerMetrics(tracedOut{rec: newRecorder(), wall: time.Second, lanes: 1},
		passOut{wall: time.Second}, memDelta{}, env{workers: 1}))
}
