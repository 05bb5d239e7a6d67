package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"uniserver/internal/core"
	"uniserver/internal/fleet"
	"uniserver/internal/openstack"
	"uniserver/internal/rng"
	"uniserver/internal/workload"
)

// The traced fleet driver walks a fleet.Config node by node through
// the same public calls fleet.Run makes on its cached
// characterization paths — core.New + PreDeployment, Snapshot,
// Compile, RestoreInto + Reseed, StartDeployment + Node, Step +
// PredictedFailProb, FastForward + MaybeRecharacterize — and then
// replays the cloud with openstack.NewManager, StreamCursor and
// StepFleet, recording a span around each. It rebuilds the
// fleet.Summary fleet.Run would return, so the caller can require the
// two fingerprints to be equal: a split that measured a different
// program would fail that check instead of reporting numbers.

// spillDir is a characterization spill directory for the traced
// served pass. It writes and reads entries as fleet.CharactCache's
// disk spill does: the snapshot wire bytes, report and health-log
// bytes gob-encoded into a temp file that is renamed into place, then
// opened and decoded on a later miss. Served cells capture no health
// log, so that field stays empty, as it does in the service. It lives in a directory of its
// own inside the store's, so the traced re-drive neither finds nor
// overwrites the entries the direct run spilled. The traced pass
// re-drives its cells one at a time: it is not safe for concurrent
// use.
type spillDir struct {
	dir   string
	saved map[string]bool
	bytes int64
}

// spillEntry has the fields of fleet's on-disk entry, so that encoding
// and decoding it cost what the service's spill costs.
type spillEntry struct {
	Key      string
	Snapshot []byte
	Pre      core.PreDeploymentReport
	Log      []byte
}

func newSpillDir(dir string) (*spillDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &spillDir{dir: dir, saved: make(map[string]bool)}, nil
}

func (d *spillDir) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(d.dir, hex.EncodeToString(sum[:])+".charact")
}

func (d *spillDir) save(key string, snap *core.Snapshot, pre core.PreDeploymentReport) error {
	var sb bytes.Buffer
	if err := snap.Save(&sb); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(d.dir, ".charact-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := gob.NewEncoder(tmp).Encode(&spillEntry{Key: key, Snapshot: sb.Bytes(), Pre: pre}); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), d.path(key))
}

func (d *spillDir) load(key string) (*core.Snapshot, core.PreDeploymentReport, error) {
	f, err := os.Open(d.path(key))
	if err != nil {
		return nil, core.PreDeploymentReport{}, err
	}
	defer f.Close()
	var st spillEntry
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, core.PreDeploymentReport{}, err
	}
	if st.Key != key {
		return nil, core.PreDeploymentReport{}, fmt.Errorf("spill entry for %q holds %q", key, st.Key)
	}
	snap, err := core.LoadSnapshot(bytes.NewReader(st.Snapshot))
	return snap, st.Pre, err
}

// charactCache mirrors fleet.CharactCache's keying: one
// characterization per (seed, archetype bin), compiled to a restore
// template that every consumer stamps. With a spill directory,
// entries found there are loaded instead of characterized, and fresh
// characterizations are saved to it.
type charactCache struct {
	mu      sync.Mutex
	entries map[string]*charactEntry
	spill   *spillDir
}

type charactEntry struct {
	once sync.Once
	tmpl *core.RestoreTemplate
	pre  core.PreDeploymentReport
	err  error
}

func newCharactCache(spill *spillDir) *charactCache {
	return &charactCache{entries: make(map[string]*charactEntry), spill: spill}
}

// entry returns key's characterization, building it on t if this is
// the first consumer.
func (c *charactCache) entry(t *track, seed uint64, spec fleet.NodeSpec) *charactEntry {
	key := fmt.Sprintf("seed=%d %s", seed, fleet.ArchetypeBin(spec))
	c.mu.Lock()
	e := c.entries[key]
	if e == nil {
		e = &charactEntry{}
		c.entries[key] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.err = c.build(t, e, key, seed, spec) })
	return e
}

func (c *charactCache) build(t *track, e *charactEntry, key string, seed uint64, spec fleet.NodeSpec) error {
	var snap *core.Snapshot
	fromSpill := c.spill != nil && c.spill.saved[key]
	if fromSpill {
		if err := t.do("core.persist.load", seed, func() (err error) {
			snap, e.pre, err = c.spill.load(key)
			return err
		}); err != nil {
			return err
		}
	} else {
		var eco *core.Ecosystem
		if err := t.do("core.characterize", seed, func() (err error) {
			if eco, err = core.New(specOptions(spec, seed)); err != nil {
				return err
			}
			e.pre, err = eco.PreDeployment()
			return err
		}); err != nil {
			return err
		}
		if err := t.do("core.snapshot", seed, func() (err error) {
			snap, err = eco.Snapshot()
			return err
		}); err != nil {
			return err
		}
	}
	t.do("core.compile", seed, func() error {
		e.tmpl = snap.Compile()
		return nil
	})
	if c.spill != nil && !fromSpill {
		if err := t.do("core.persist.save", seed, func() error { return c.spill.save(key, snap, e.pre) }); err != nil {
			return err
		}
		fi, err := os.Stat(c.spill.path(key))
		if err != nil {
			return err
		}
		c.spill.saved[key] = true
		c.spill.bytes += fi.Size()
	}
	return nil
}

// specOptions is the core configuration fleet.Run builds for a node
// spec and seed.
func specOptions(spec fleet.NodeSpec, seed uint64) core.Options {
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Mem = spec.Mem
	opts.AmbientCPUC = spec.AmbientCPUC
	opts.AmbientDIMMC = spec.AmbientDIMMC
	if spec.Part.Cores != 0 {
		opts.SetPart(spec.Part)
	}
	return opts
}

// nodeResult is what one node task leaves behind for the fold and the
// replay.
type nodeResult struct {
	summary fleet.NodeSummary
	depSum  core.DeploymentSummary
	osNode  *openstack.Node
	health  []openstack.NodeHealth
}

// lane is one worker's tracing context: its span track and its
// restore arena, both reused node after node like fleet.Run's.
type lane struct {
	t     *track
	arena *core.RestoreArena
}

func newLanes(rec *recorder, n int) []lane {
	ls := make([]lane, n)
	for i := range ls {
		ls[i] = lane{t: rec.track(), arena: core.NewRestoreArena()}
	}
	return ls
}

// traceFleet runs cfg node by node on the given lanes (one worker per
// lane) and returns the summary fleet.Run would have produced.
func traceFleet(cfg fleet.Config, cache *charactCache, lanes []lane) (fleet.Summary, error) {
	if cfg.Lifetime != nil {
		cfg.Windows = cfg.Lifetime.TotalWindows()
	}
	if cfg.Repair <= 0 {
		cfg.Repair = 15 * time.Minute
	}
	nodes := make([]nodeResult, cfg.Nodes)
	errs := make([]error, len(lanes))
	var next atomic.Int64
	work := func(k int) {
		for {
			i := int(next.Add(1) - 1)
			if i >= cfg.Nodes {
				return
			}
			if err := traceNode(cfg, cache, lanes[k], i, &nodes[i]); err != nil {
				errs[k] = fmt.Errorf("node %d: %w", i, err)
				next.Store(int64(cfg.Nodes))
				return
			}
		}
	}
	if len(lanes) == 1 {
		work(0)
	} else {
		var wg sync.WaitGroup
		for k := range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work(k)
			}()
		}
		wg.Wait()
	}
	for _, err := range errs {
		if err != nil {
			return fleet.Summary{}, err
		}
	}
	return replayFleet(cfg, nodes, lanes[0].t)
}

// traceNode is node i's task: characterize or stamp, deploy, step
// every window of every epoch.
func traceNode(cfg fleet.Config, cache *charactCache, l lane, i int, out *nodeResult) error {
	t := l.t
	root := t.begin("fleet.node", uint64(i))
	defer t.end(root, 1)

	spec := cfg.BaseSpec()
	if cfg.Node != nil {
		spec = cfg.Node(i)
	}
	name := fmt.Sprintf("uniserver-%02d", i)
	seed := fleet.NodeSeed(cfg.Seed, i)
	charactSeed := seed
	if cfg.Archetypes {
		charactSeed = fleet.ArchetypeSeed(cfg.Seed, fleet.ArchetypeBin(spec))
	}
	e := cache.entry(t, charactSeed, spec)
	if e.err != nil {
		return e.err
	}

	var eco *core.Ecosystem
	if err := t.do("core.stamp", uint64(i), func() (err error) {
		eco, err = e.tmpl.RestoreInto(l.arena, core.RestoreOptions{AmbientCPUC: spec.AmbientCPUC, AmbientDIMMC: spec.AmbientDIMMC})
		if err == nil && cfg.Archetypes {
			err = eco.Reseed(seed)
		}
		return err
	}); err != nil {
		return err
	}

	var dep *core.Deployment
	if err := t.do("core.deploy", uint64(i), func() (err error) {
		if dep, err = eco.StartDeployment(spec.Mode, spec.RiskTarget, spec.Workload); err != nil {
			return err
		}
		if cfg.Lifetime != nil {
			dep.SetCadence(cfg.Lifetime.RecharactEvery)
		}
		if cfg.Drift != nil {
			dep.SetDriftPolicy(cfg.Drift.MarginFrac)
		}
		if cfg.ECC != nil {
			dep.SetECCLoop(cfg.ECC.Threshold)
		}
		if cfg.WeakGrowthPerDay > 0 {
			eco.SetWeakGrowth(cfg.WeakGrowthPerDay)
		}
		out.osNode, err = eco.Node(name, spec.MemBytes)
		return err
	}); err != nil {
		return err
	}

	out.health = make([]openstack.NodeHealth, cfg.Windows)
	step := func(w int) error {
		if cfg.Perturb != nil {
			p := cfg.Perturb(i, w)
			if p.Ambient != nil {
				eco.SetAmbient(p.Ambient.CPUC, p.Ambient.DIMMC)
			}
			if p.Workload != nil {
				dep.SetWorkload(*p.Workload)
			}
			if p.Mode != nil {
				if err := dep.SwitchMode(p.Mode.Mode, p.Mode.RiskTarget); err != nil {
					return err
				}
			}
		}
		rep, err := dep.Step()
		if err != nil {
			return err
		}
		fp, err := eco.PredictedFailProb()
		if err != nil {
			return err
		}
		out.health[w] = openstack.NodeHealth{
			Name: name, FailProb: fp, Crashed: rep.Crashed,
			Correctable: rep.Correctable, ThermalAlarm: rep.ThermalAlarm,
		}
		return nil
	}
	epochs := 1
	if cfg.Lifetime != nil {
		epochs = cfg.Lifetime.Epochs()
	}
	w := 0
	for ei := 0; ei < epochs; ei++ {
		if ei > 0 {
			if err := t.do("core.fast_forward", uint64(i), func() error { return dep.FastForward(cfg.Lifetime.Gaps[ei-1]) }); err != nil {
				return err
			}
			if err := t.do("core.recharacterize", uint64(i), func() error {
				_, err := dep.MaybeRecharacterize()
				return err
			}); err != nil {
				return err
			}
		}
		n := cfg.Windows
		if cfg.Lifetime != nil {
			n = cfg.Lifetime.EpochWindows[ei]
		}
		s := t.begin("core.step", uint64(i))
		for k := 0; k < n; k++ {
			if err := step(w); err != nil {
				t.end(s, int64(k))
				return fmt.Errorf("window %d: %w", w, err)
			}
			w++
		}
		t.end(s, int64(n))
	}

	d := dep.Summary()
	out.depSum = d
	out.summary = fleet.NodeSummary{
		Name: name, Model: eco.Machine.Spec.Model, Seed: seed,
		PredictorAcc:       e.pre.PredictorAcc,
		Crashes:            d.Crashes,
		Recharacterized:    d.Recharacterized,
		WindowsAtEOP:       d.WindowsAtEOP,
		CorrectableMasked:  d.CorrectableMasked,
		DRAMCorrected:      d.DRAMCorrected,
		MeanCPUTempC:       d.MeanCPUTempC,
		EnergySavedWh:      d.EnergySavedWh,
		FinalSafeVoltageMV: d.FinalSafeVoltageMV,
		Epochs:             d.Epochs,
		RecharTriggered:    d.RecharTriggered,
		RecharSuppressed:   d.RecharSuppressed,
		UndervoltSteps:     d.UndervoltSteps,
		ECCBackoffs:        d.ECCBackoffs,
	}
	if len(d.Epochs) > 0 {
		out.summary.FinalAgeShiftMV = d.FinalAgeShiftMV
	}
	return nil
}

// replayFleet folds the node results in node order and replays the
// cloud layer window by window, as fleet.Run's coordinator and replay
// goroutine do.
func replayFleet(cfg fleet.Config, nodes []nodeResult, t *track) (fleet.Summary, error) {
	sum := fleet.Summary{Nodes: cfg.Nodes, Windows: cfg.Windows}
	osNodes := make([]*openstack.Node, len(nodes))
	for i := range nodes {
		d := nodes[i].depSum
		sum.Crashes += d.Crashes
		sum.Fallbacks += d.Fallbacks
		sum.Recharacterized += d.Recharacterized
		sum.WindowsAtEOP += d.WindowsAtEOP
		sum.CorrectableMasked += d.CorrectableMasked
		sum.DRAMCorrected += d.DRAMCorrected
		sum.EnergySavedWh += d.EnergySavedWh
		sum.MeanCPUTempC += d.MeanCPUTempC
		sum.RecharTriggered += d.RecharTriggered
		sum.RecharSuppressed += d.RecharSuppressed
		sum.UndervoltSteps += d.UndervoltSteps
		sum.ECCBackoffs += d.ECCBackoffs
		sum.PerNode = append(sum.PerNode, nodes[i].summary)
		osNodes[i] = nodes[i].osNode
	}
	sum.MeanCPUTempC /= float64(cfg.Nodes)

	arrivals := cfg.Arrivals
	if arrivals == nil {
		var err error
		arrivals, err = workload.Stream(cfg.StreamDefaults(), rng.New(cfg.Seed).SplitLabeled("fleet/arrivals"))
		if err != nil {
			return fleet.Summary{}, err
		}
	}
	mgr, err := openstack.NewManager(cfg.Policy, osNodes...)
	if err != nil {
		return fleet.Summary{}, err
	}
	cursor := openstack.NewStreamCursor(arrivals)
	health := make([]openstack.NodeHealth, len(nodes))
	for w := 0; w < cfg.Windows; w++ {
		s := t.begin("openstack.replay", uint64(w))
		now := time.Duration(w) * time.Minute
		cursor.Advance(mgr, now)
		for i := range nodes {
			health[i] = nodes[i].health[w]
		}
		stats, err := mgr.StepFleet(health, time.Minute, now, cfg.Repair)
		t.end(s, 1)
		if err != nil {
			return fleet.Summary{}, err
		}
		sum.EvictedVMs += stats.EvictedVMs
	}
	sum.Scheduled = mgr.Scheduled
	sum.Rejected = mgr.Rejected
	sum.Migrations = mgr.Migrations
	sum.SLAViolations = mgr.SLAViolations
	sum.UserFacingViolations = mgr.UserFacingViolations
	sum.EnergyKWh = mgr.EnergyJ / 3.6e6
	sum.MeanAvailability = mgr.MeanAvailability()
	return sum, nil
}
