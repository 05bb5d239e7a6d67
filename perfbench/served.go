package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"uniserver/internal/campaignd"
	"uniserver/internal/core"
	"uniserver/internal/fleet"
	"uniserver/internal/resultstore"
	"uniserver/internal/scenario"
)

// The served-campaign workload: campaignd's HTTP handler on a
// loopback listener over a fresh result store, driven by closed-loop
// clients. Each client waits for a submission's NDJSON "done" event
// before it sends the next. Every submission is one cell at
// servedNodes × servedWindows, of one of three kinds:
//
//	fresh    aging-year on a new seed: characterization, fast-forward,
//	         re-characterization, spill save, cell put
//	sibling  baseline or thermal-summer on a seed a fresh request
//	         used: characterization loaded from the spill directory
//	repeat   a run already completed: served from store reads alone
//
// Each client's script is servedGroups groups of requests, one group
// per seed: 1 fresh and 2 sibling requests, then servedRepeats repeat
// requests of those three runs, so the shares are fixed at 1/15, 2/15
// and 12/15. The shares are an assumption, not a measured mix: no
// request log of the service exists to take them from. Repeats are
// most requests so that the median request is a repeat, which makes
// request_p50_ms the figure of the store-read, HTTP and NDJSON path,
// while executed cells take almost all of the wall time and so set
// cells_per_s (README.md gives the measured shares of each kind).
//
// A group runs in two phases, executions then repeats, and the clients
// wait for each other at the end of each phase. No repeat is therefore
// in flight beside an executing cell, whose workers occupy every CPU:
// its latency measures the read path rather than how the scheduler
// shares the CPUs. Clients draw disjoint seeds, so the same run is
// never submitted on both at once.

const (
	servedClients = 2
	servedGroups  = 4
	servedRepeats = 12
	servedNodes   = 2
	servedWindows = 8
)

const (
	kindFresh   = "fresh"
	kindSibling = "sibling"
	kindRepeat  = "repeat"
)

var servedKinds = []string{kindFresh, kindSibling, kindRepeat}

type request struct {
	kind   string
	preset string
	seed   uint64
	// phase orders the script: every client finishes its requests of a
	// phase before any client starts the next phase.
	phase int
}

// clientScript is client c's request sequence for the workload seed.
func clientScript(seed uint64, c int) []request {
	var out []request
	for g := 0; g < servedGroups; g++ {
		f := seed*1000 + uint64(g*servedClients+c)
		out = append(out,
			request{kindFresh, "aging-year", f, 2 * g},
			request{kindSibling, "baseline", f, 2 * g},
			request{kindSibling, "thermal-summer", f, 2 * g},
		)
		for k := 0; k < servedRepeats; k++ {
			out = append(out, request{kindRepeat, []string{"aging-year", "baseline", "thermal-summer"}[k%3], f, 2*g + 1})
		}
	}
	return out
}

// servedScenario resolves a preset exactly as the HTTP handler does
// for a {presets, nodes, windows} submission.
func servedScenario(preset string) (scenario.Scenario, error) {
	s, err := scenario.ByName(preset)
	if err != nil {
		return scenario.Scenario{}, err
	}
	return s.Scale(servedNodes, servedWindows), nil
}

// reply is what one submission returned.
type reply struct {
	lat    time.Duration
	sha    string
	cached bool
	runID  string
	o      outcome
	err    error
}

type servedRunner struct {
	dir     string
	srv     *campaignd.Server
	hs      *http.Server
	served  chan error
	url     string
	client  *http.Client
	scripts [][]request
	// nodeWindows is each preset's simulated node-windows per cell.
	nodeWindows map[string]int64
}

var storeSeq atomic.Int64

// openStore opens a result store in a fresh, empty directory.
func openStore(workdir string) (*resultstore.Store, error) {
	dir := fmt.Sprintf("%s/store-%d-%d", workdir, os.Getpid(), storeSeq.Add(1))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	return resultstore.Open(dir)
}

// stampSpill stamps the store's characterization spill directory,
// which the first campaign would otherwise do. It runs after the timed
// set-up and before the first request, so it is timed by neither.
//
// fleet.CharactCache.AttachDir writes that VERSION stamp
// non-atomically, so two submissions that reach an unstamped store at
// the same moment can race: one reads the half-written stamp and its
// run fails with "is version , this build writes version 1". Both
// clients start with a fresh request on a fresh store, and without the
// stamp about one pass in 25 failed on that defect rather than measure
// anything.
func stampSpill(st *resultstore.Store) error {
	return fleet.NewCharactCache().AttachDir(st.CharactDir())
}

func resolveScripts(e env) ([][]request, map[string]int64, error) {
	scripts := make([][]request, servedClients)
	for c := range scripts {
		scripts[c] = clientScript(e.seed, c)
	}
	nw := make(map[string]int64)
	for _, r := range scripts[0] {
		if _, ok := nw[r.preset]; ok {
			continue
		}
		s, err := servedScenario(r.preset)
		if err != nil {
			return nil, nil, err
		}
		cfg, err := s.FleetConfig(r.seed)
		if err != nil {
			return nil, nil, err
		}
		nw[r.preset] = int64(cfg.Nodes) * int64(cfg.Windows)
	}
	return scripts, nw, nil
}

func setupServed(e env) (runner, error) {
	scripts, nw, err := resolveScripts(e)
	if err != nil {
		return nil, err
	}
	st, err := openStore(e.workdir)
	if err != nil {
		return nil, err
	}
	srv := campaignd.New(campaignd.Options{Store: st, Pool: e.workers})
	if _, err := srv.ResumeIncomplete(); err != nil {
		srv.Close()
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	r := &servedRunner{
		dir: st.Dir(), srv: srv,
		hs:          &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served:      make(chan error, 1),
		url:         "http://" + ln.Addr().String() + "/api/v1/campaigns",
		client:      &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: servedClients}},
		scripts:     scripts,
		nodeWindows: nw,
	}
	go func() { r.served <- r.hs.Serve(ln) }()
	return r, nil
}

// close runs after every reply has been read, so no request is in
// flight: closing the server outright is enough.
func (r *servedRunner) close() {
	r.client.CloseIdleConnections()
	r.hs.Close()
	<-r.served
	r.srv.Close()
	os.RemoveAll(r.dir)
}

// submit posts one request and reads the NDJSON stream to "done".
func (r *servedRunner) submit(req request) reply {
	body, _ := json.Marshal(campaignd.SubmitRequest{ // a fixed struct of strings and ints
		Presets: []string{req.preset}, Seeds: []uint64{req.seed},
		Nodes: servedNodes, Windows: servedWindows,
	})
	start := time.Now()
	resp, err := r.client.Post(r.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{o: opErrored, err: err}
	}
	defer func() {
		// Reading to EOF returns the connection to the client's pool, so
		// each client keeps one connection open across its requests.
		_, _ = io.Copy(io.Discard, resp.Body) // the stream is over; its tail carries nothing
		resp.Body.Close()
	}()
	if resp.StatusCode != http.StatusOK {
		return reply{o: opRefused, err: fmt.Errorf("HTTP %s", resp.Status)}
	}
	var rep reply
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var ev struct {
			Type              string `json:"type"`
			RunID             string `json:"run_id"`
			Cached            bool   `json:"cached"`
			FingerprintSHA256 string `json:"fingerprint_sha256"`
			Err               string `json:"error"`
			Status            string `json:"status"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return reply{o: opErrored, err: err}
		}
		switch ev.Type {
		case "cell":
			rep.sha, rep.cached = ev.FingerprintSHA256, ev.Cached
			if ev.Err != "" {
				return reply{o: opErrored, err: errors.New(ev.Err)}
			}
		case "done":
			rep.lat = time.Since(start)
			rep.runID = ev.RunID
			if ev.Status != "complete" {
				return reply{o: opRefused, err: fmt.Errorf("run %s: %s %s", ev.RunID, ev.Status, ev.Err)}
			}
			return rep
		}
	}
	if err := sc.Err(); err != nil {
		return reply{o: opErrored, err: err}
	}
	return reply{o: opErrored, err: errors.New("stream ended before done")}
}

// runClients drives every client's script closed-loop, one goroutine
// per client and phase, with do performing one request.
func runClients(scripts [][]request, do func(c, j int, req request) reply) [][]reply {
	out := make([][]reply, len(scripts))
	next := make([]int, len(scripts))
	for c := range scripts {
		out[c] = make([]reply, len(scripts[c]))
	}
	for phase := 0; ; phase++ {
		var wg sync.WaitGroup
		more := false
		for c, script := range scripts {
			if next[c] == len(script) {
				continue
			}
			more = true
			wg.Add(1)
			go func() {
				defer wg.Done()
				for ; next[c] < len(script) && script[next[c]].phase == phase; next[c]++ {
					out[c][next[c]] = do(c, next[c], script[next[c]])
				}
			}()
		}
		if !more {
			return out
		}
		wg.Wait()
	}
}

// checkReplies applies the workload's correctness rules: fresh and
// sibling requests execute, repeats come back cached with the
// fingerprint their run first produced. It returns the pass
// fingerprint over every reply in script order.
func checkReplies(scripts [][]request, replies [][]reply) (string, tally) {
	var t tally
	var fp bytes.Buffer
	for c, script := range scripts {
		first := make(map[string]string)
		for j, req := range script {
			rp := &replies[c][j]
			cell := cellName(req.preset, req.seed)
			if rp.o == opOK {
				want, seen := first[cell]
				switch {
				case rp.sha == "":
					rp.o = opWrong
				case req.kind == kindRepeat && (!rp.cached || !seen || rp.sha != want):
					rp.o = opWrong
				case req.kind != kindRepeat && rp.cached:
					rp.o = opWrong
				}
				if !seen {
					first[cell] = rp.sha
				}
			}
			t.add(rp.o)
			fmt.Fprintf(&fp, "%d %s %s %s cached=%t\n", c, req.kind, cell, rp.sha, rp.cached)
		}
	}
	return sha256Hex(fp.String()), t
}

func (r *servedRunner) run() (passOut, error) {
	if err := stampSpill(r.srv.Store()); err != nil {
		return passOut{}, err
	}
	start := time.Now()
	replies := runClients(r.scripts, func(_, _ int, req request) reply { return r.submit(req) })
	out := passOut{wall: time.Since(start), cellFPs: make(map[string]string)}
	out.fingerprint, out.ops = checkReplies(r.scripts, replies)
	var firstErr error
	for c, script := range r.scripts {
		for j, req := range script {
			rp := replies[c][j]
			if rp.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("%s %s: %w", req.kind, cellName(req.preset, req.seed), rp.err)
			}
			if rp.o != opOK {
				continue
			}
			out.cells++
			out.latMS = append(out.latMS, ms(rp.lat))
			out.kinds = append(out.kinds, req.kind)
			out.cellFPs[cellName(req.preset, req.seed)] = rp.sha
			if !rp.cached {
				out.nodeWindows += r.nodeWindows[req.preset]
			}
		}
	}
	out.store = r.srv.Store().Stats()
	return out, firstErr
}

// tracedServed sends the same request sequence through Server.Submit
// directly (one campaignd.submit span per request), then splits each
// request by layer: executed cells are re-driven node by node through
// the traced fleet driver with a spill directory of their own, and
// the store writes and reads each request made are repeated and timed
// on the store the direct run produced. Whatever part of a request's
// Submit time those spans do not cover is campaignd's own.
func tracedServed(e env, untraced passOut) (tracedOut, error) {
	scripts, _, err := resolveScripts(e)
	if err != nil {
		return tracedOut{}, err
	}
	st, err := openStore(e.workdir)
	if err != nil {
		return tracedOut{}, err
	}
	defer os.RemoveAll(st.Dir())
	if err := stampSpill(st); err != nil {
		return tracedOut{}, err
	}
	srv := campaignd.New(campaignd.Options{Store: st, Pool: e.workers})
	defer srv.Close()

	rec := newRecorder()
	tracks := make([]*track, len(scripts))
	for c := range tracks {
		tracks[c] = rec.track()
	}
	var cacheMu sync.Mutex
	var cache fleet.CacheStats
	reqID := func(c, j int) uint64 { return uint64(c*len(scripts[0]) + j) }
	kindOf := make(map[uint64]string)
	for c, script := range scripts {
		for j, req := range script {
			kindOf[reqID(c, j)] = req.kind
		}
	}
	start := time.Now()
	replies := runClients(scripts, func(c, j int, req request) reply {
		s, err := servedScenario(req.preset)
		if err != nil {
			return reply{o: opErrored, err: err}
		}
		t := tracks[c]
		t0 := time.Now()
		i := t.begin("campaignd.submit", reqID(c, j))
		runID, rep, err := srv.Submit([]scenario.Scenario{s}, []uint64{req.seed}, 0, 0, nil)
		t.end(i, 1)
		lat := time.Since(t0)
		if err != nil {
			return reply{o: opErrored, err: err}
		}
		cacheMu.Lock()
		cache.Hits += rep.CharactCacheHits
		cache.Misses += rep.CharactCacheMisses
		cache.Coalesced += rep.CharactCoalesced
		cache.DiskHits += rep.CharactDiskHits
		cache.Compiled += rep.CharactCompiled
		cacheMu.Unlock()
		res := rep.Results[0]
		return reply{lat: lat, sha: res.FingerprintSHA256, cached: res.Cached, runID: runID}
	})
	submitWall := time.Since(start)
	out := tracedOut{rec: rec, lanes: 1, cache: &cache}
	_, direct := checkReplies(scripts, replies)
	out.mismatches += direct.failed()
	for c, script := range scripts {
		for j, req := range script {
			if rp := replies[c][j]; rp.o == opOK && rp.sha != untraced.cellFPs[cellName(req.preset, req.seed)] {
				out.mismatches++
			}
		}
	}

	// Layer split, one request at a time on one lane.
	t := rec.track()
	spill, err := newSpillDir(filepath.Join(st.Dir(), "traced-charact"))
	if err != nil {
		return out, err
	}
	start = time.Now()
	for c, script := range scripts {
		for j, req := range script {
			rp := replies[c][j]
			if rp.o != opOK {
				continue
			}
			root := t.begin("served.request", reqID(c, j))
			err := splitRequest(st, t, spill, req, rp)
			t.end(root, 1)
			if errors.Is(err, errMismatch) {
				out.mismatches++
			} else if err != nil {
				return out, fmt.Errorf("%s %s: %w", req.kind, cellName(req.preset, req.seed), err)
			}
		}
	}
	out.wall = time.Since(start)
	out.overheadWall = submitWall
	var split map[string]kindSplit
	out.denom, split = servedSplit(rec, kindOf)
	out.entryBytes = float64(spill.bytes)
	out.extra = servedLines(rec, untraced, split, scripts, replies)
	return out, nil
}

var errMismatch = errors.New("traced fingerprint differs from the served one")

// splitRequest re-drives one request's work with a span per layer.
func splitRequest(st *resultstore.Store, t *track, spill *spillDir, req request, rp reply) error {
	s, err := servedScenario(req.preset)
	if err != nil {
		return err
	}
	key, _, err := resultstore.CellKey(s, req.seed)
	if err != nil {
		return err
	}
	if req.kind == kindRepeat {
		if err := t.do("resultstore.get", 0, func() error {
			if _, ok := st.GetCell(key); !ok {
				return fmt.Errorf("cell %s missing from the store", key)
			}
			return nil
		}); err != nil {
			return err
		}
	} else {
		cfg, err := s.FleetConfig(req.seed)
		if err != nil {
			return err
		}
		// A new cache and restore arena per cell, as each submission's
		// campaign and fleet.Run start with.
		sum, err := traceFleet(cfg, newCharactCache(spill), []lane{{t: t, arena: core.NewRestoreArena()}})
		if err != nil {
			return err
		}
		if sha256Hex(sum.Fingerprint()) != rp.sha {
			return errMismatch
		}
		rec, ok := st.GetCell(key)
		if !ok {
			return fmt.Errorf("cell %s missing from the store", key)
		}
		if err := t.do("resultstore.put", 0, func() error { return st.PutCell(rec) }); err != nil {
			return err
		}
	}
	complete, ok := st.GetRun(rp.runID)
	if !ok {
		return fmt.Errorf("run %s missing from the store", rp.runID)
	}
	// Submit writes the manifest twice: running, then complete with
	// the report.
	running := resultstore.RunManifest{
		ID: complete.ID, Status: resultstore.RunRunning, Scenarios: complete.Scenarios, Seeds: complete.Seeds,
		FleetWorkers: complete.FleetWorkers, Parallel: complete.Parallel, CellKeys: complete.CellKeys,
	}
	for _, m := range []resultstore.RunManifest{running, complete} {
		if err := t.do("resultstore.run_put", 0, func() error { return st.PutRun(m) }); err != nil {
			return err
		}
	}
	return nil
}

// kindSplit is one request kind's Submit time and the part of it the
// layer spans account for, by layer group.
type kindSplit struct {
	submit time.Duration
	groups map[string]time.Duration
}

// layerGroup maps a span name to the group the served split reports.
func layerGroup(name string) string {
	switch name {
	case "core.characterize", "core.snapshot", "core.compile":
		return "characterize"
	case "core.fast_forward", "core.recharacterize":
		return "lifetime"
	case "core.persist.save", "core.persist.load":
		return "persist"
	case "resultstore.get", "resultstore.put", "resultstore.run_put":
		return "resultstore"
	default:
		return "simulate" // stamp, deploy, step, replay, node bookkeeping
	}
}

// servedSplit attributes the split spans to their request's kind and
// returns the total Submit time with the per-kind split. The
// unattributed rest of each kind's Submit time is filed as campaignd.
func servedSplit(rec *recorder, kindOf map[uint64]string) (time.Duration, map[string]kindSplit) {
	split := make(map[string]kindSplit)
	get := func(k string) kindSplit {
		s, ok := split[k]
		if !ok {
			s = kindSplit{groups: make(map[string]time.Duration)}
		}
		return s
	}
	var total time.Duration
	for _, t := range rec.tracks {
		self := selfTimes(t.spans)
		root := make([]int32, len(t.spans))
		for i, sp := range t.spans {
			if sp.name == "campaignd.submit" {
				k := get(kindOf[sp.id])
				k.submit += sp.end - sp.start
				total += sp.end - sp.start
				split[kindOf[sp.id]] = k
				continue
			}
			root[i] = int32(i)
			if sp.parent >= 0 {
				root[i] = root[sp.parent]
			}
			if sp.parent < 0 || t.spans[root[i]].name != "served.request" {
				continue
			}
			kind := kindOf[t.spans[root[i]].id]
			k := get(kind)
			k.groups[layerGroup(sp.name)] += self[i]
			split[kind] = k
		}
	}
	for kind, k := range split {
		var covered time.Duration
		for _, d := range k.groups {
			covered += d
		}
		k.groups["campaignd"] = max(0, k.submit-covered)
		split[kind] = k
	}
	return total, split
}

// servedLines reports the served workload's figures that exist on no
// other workload: per-kind latency through HTTP and through Submit
// directly, the per-kind layer split, and the store and spill call
// latencies.
func servedLines(rec *recorder, untraced passOut, split map[string]kindSplit, scripts [][]request, replies [][]reply) []string {
	var lines []string
	for _, k := range servedKinds {
		var viaHTTP, direct []float64
		for i, kk := range untraced.kinds {
			if kk == k {
				viaHTTP = append(viaHTTP, untraced.latMS[i])
			}
		}
		for c, script := range scripts {
			for j, req := range script {
				if req.kind == k && replies[c][j].o == opOK {
					direct = append(direct, ms(replies[c][j].lat))
				}
			}
		}
		lines = append(lines, fmt.Sprintf("%s: http_p50_ms %.6g, campaignd.submit_ms %.6g, http_overhead_ms %.6g (n=%d)",
			k, median(viaHTTP), median(direct), median(viaHTTP)-median(direct), len(direct)))
		ks := split[k]
		if ks.submit <= 0 {
			continue
		}
		line := fmt.Sprintf("%s split of %.6g ms Submit time:", k, ms(ks.submit))
		for _, g := range []string{"characterize", "lifetime", "persist", "simulate", "resultstore", "campaignd"} {
			line += fmt.Sprintf(" %s %.3f", g, float64(ks.groups[g])/float64(ks.submit))
		}
		lines = append(lines, line)
	}
	ls := rec.layers()
	for _, x := range []struct {
		name string
		unit time.Duration
		u    string
	}{
		{"resultstore.get", time.Microsecond, "us"},
		{"resultstore.put", time.Microsecond, "us"},
		{"resultstore.run_put", time.Microsecond, "us"},
		{"core.persist.save", time.Millisecond, "ms"},
		{"core.persist.load", time.Millisecond, "ms"},
		{"core.fast_forward", time.Millisecond, "ms"},
		{"core.recharacterize", time.Millisecond, "ms"},
	} {
		if l := ls[x.name]; l != nil && l.count > 0 {
			lines = append(lines, fmt.Sprintf("%s mean %.6g %s (n=%d)", x.name, float64(l.busy)/float64(l.count)/float64(x.unit), x.u, l.count))
		}
	}
	return lines
}
