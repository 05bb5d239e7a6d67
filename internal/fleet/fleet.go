// Package fleet is the concurrent multi-node runtime: a deterministic,
// worker-pool-driven engine that runs N core.Ecosystem nodes in
// parallel. Each node's entire lifecycle is one fused worker task —
// pre-deployment characterization (stress campaigns, fault-injection,
// predictor training, or an archetype-snapshot restore), mode entry,
// cloud export, then the full window sequence, buffering a compact
// health record per window — after which the node's ecosystem is
// dropped and only its summary, health records and exported cloud node
// survive. A replay goroutine feeds the recorded health into the
// openstack.Manager scheduler in window order (reliability metric,
// proactive migration, SLA accounting), pipelined against compute:
// window w replays the moment every node has buffered it, while later
// windows are still stepping. Batching is legal because node
// simulations never read cloud-layer state: the replay feeds the
// manager byte-identical inputs, in the identical order, as a
// per-window barrier would, at a fraction of the synchronization cost
// — and pipelining is legal for the same reason, since consuming a
// completed window can never perturb the windows still computing.
//
// The fused lifecycle is what bounds memory: at most `workers` full
// ecosystems are alive at any instant, independent of fleet size, so
// peak heap scales as workers × ecosystem-size plus O(nodes) compact
// state (health records, summaries, exported cloud nodes) — which is
// what makes O(100k)-node populations runnable. Config.Shards
// partitions the node range into contiguous batches dispatched in
// order, bounding the coordinator's unfolded-summary backlog to two
// shards (the shard being folded and the one computing behind it);
// Config.OnNode streams per-node summaries out instead of retaining
// them; Config.Archetypes collapses characterization cost from
// O(nodes) to O(distinct silicon/DRAM bins) by cloning one
// characterized snapshot per bin with per-node stream reseating.
//
// Determinism is a hard requirement and a structural property, not a
// best effort: every node owns its rng.Source (seeded by the pure
// NodeSeed function), its telemetry.Clock and its entire simulator
// stack, so no worker-scheduling order can perturb a node's stream;
// workers write only to their own node's slot; and everything that
// crosses nodes — health reports into the manager, VM arrivals, the
// final summary — is merged in node order on the coordinator
// goroutine. Shards fold strictly in shard order and nodes within a
// shard in node order, so the global merge order is exactly the
// unsharded engine's node order. The same seed therefore produces
// byte-identical fleet fingerprints at any worker count AND any shard
// count, while wall-clock drops with cores.
package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"uniserver/internal/core"
	"uniserver/internal/cpu"
	"uniserver/internal/dram"
	"uniserver/internal/openstack"
	"uniserver/internal/rng"
	"uniserver/internal/vfr"
	"uniserver/internal/workload"
)

// Config shapes a fleet run.
type Config struct {
	// Nodes is the fleet size.
	Nodes int
	// Workers bounds the worker pool; <= 0 means GOMAXPROCS. Worker
	// count never changes results, only wall-clock — and it is the
	// memory dial: at most Workers ecosystems are alive at once.
	Workers int
	// Seed drives the whole fleet; per-node seeds derive from it via
	// NodeSeed.
	Seed uint64
	// Mode and RiskTarget select each node's operating point.
	Mode       vfr.Mode
	RiskTarget float64
	// Windows is the number of barrier epochs (one simulated minute
	// each, matching core's runtime window).
	Windows int
	// Workload is the per-node guest profile.
	Workload workload.Profile
	// Mem configures each node's DRAM system.
	Mem dram.Config
	// MemBytesPerNode is the schedulable memory exported per node.
	MemBytesPerNode uint64
	// Policy is the cloud scheduling policy.
	Policy openstack.Policy
	// VMs is the number of VM arrivals streamed at the fleet; <= 0
	// picks 3 per node.
	VMs int
	// Repair is how long a crashed node stays offline.
	Repair time.Duration
	// HealthLogOut, when set, receives every node's JSON-lines health
	// log, concatenated in node order (deterministic at any worker
	// count).
	HealthLogOut io.Writer

	// Node, when set, supplies node i's full spec — silicon bin,
	// memory, operating point, guest profile, ambient — overriding the
	// homogeneous fields above. It MUST be a pure function of i: it is
	// called from worker goroutines in scheduling order, and any
	// hidden state would break the determinism contract. Start from
	// BaseSpec and mutate.
	Node func(i int) NodeSpec
	// Perturb, when set, returns the scenario intervention to apply to
	// node i immediately before it steps window w — ambient changes,
	// workload swaps (tenant churn, droop-virus injection), mid-run
	// mode switches. Same purity rule as Node: it must depend only on
	// (i, w).
	Perturb func(i, w int) Perturbation
	// Arrivals, when set, replaces the default exponential VM stream
	// with an explicit (already deterministic) arrival schedule — how
	// scenario layers express diurnal and bursty tenant patterns.
	Arrivals []workload.Arrival

	// Charact, when set, memoizes pre-deployment characterization by
	// (seed, characterization-relevant spec): nodes whose key is
	// already cached are stamped from the key's characterization
	// image instead of re-running the stress/fault-injection/training campaign. Results
	// are byte-identical either way (pinned by the preset golden
	// tests); only wall-clock changes. Share one cache across the runs
	// of a campaign. Without Archetypes, node seeds within a single
	// run are all distinct, so a run-private cache only pays the
	// snapshot overhead; with Archetypes, the cache is where the
	// per-bin dedup lives (a run-private cache is created when none is
	// supplied).
	Charact *CharactCache

	// Archetypes switches characterization from per-node to per-bin:
	// every node whose spec shares an archetype bin (same silicon part
	// and DRAM configuration — see ArchetypeBin) restores a clone of
	// one bin-seeded characterization (ArchetypeSeed) and reseeds its
	// runtime streams with the node's own seed (core.Ecosystem.Reseed),
	// so characterization cost is O(bins) instead of O(nodes) while
	// runtime stochasticity stays per-node. Results are deterministic
	// and worker/shard-invariant, but intentionally differ from
	// per-node characterization: nodes in a bin share the bin's
	// published margins, weak-cell population and trained predictor
	// instead of drawing their own silicon/DRAM lottery.
	Archetypes bool

	// Shards partitions the node range into contiguous batches
	// dispatched in order across the worker pool, each folding as soon
	// as its last node finishes (shard s folds while shard s+1
	// computes). Sharding never changes results — shards fold in shard
	// order and nodes within a shard in node order, reproducing the
	// unsharded engine's node-order merge exactly — it only bounds the
	// coordinator's unfolded per-node backlog to two in-flight shards
	// and gives OnNode consumers shard-granular streaming. <= 0 means
	// one shard.
	Shards int

	// OnNode, when set, receives each node's finished summary as the
	// coordinator folds it — node order within a shard, shard order
	// across, always from the coordinator goroutine — and
	// Summary.PerNode is left nil: callers that stream do not pay
	// O(nodes) retained reports, and the fingerprint carries aggregate
	// lines only (still deterministic at any worker and shard count,
	// but not comparable against an OnNode-less run's fingerprint).
	// On a failed run, summaries streamed from shards that completed
	// before the failure was discovered will already have been
	// delivered.
	OnNode func(NodeSummary)

	// Lifetime, when set, stretches every node's run across aging
	// epochs: each epoch is a windowed simulation, separated by
	// fast-forward gaps that advance the slow state (silicon aging,
	// DRAM telegraph noise, season, the re-characterization schedule)
	// without stepping windows, with cadence-driven campaigns at epoch
	// entries. Windows is derived from the plan's TotalWindows; an
	// explicit Windows value is ignored. The cloud layer sees the
	// concatenated epoch windows — gaps carry no tenant traffic.
	Lifetime *core.LifetimePlan

	// Drift, when set, arms drift-gated re-characterization on every
	// node (core.Deployment.SetDriftPolicy): a scheduled cadence
	// campaign runs only when the predicted margin drift since the last
	// campaign exceeds MarginFrac of the advised headroom; otherwise
	// the slot is skipped. MarginFrac 0 is the degenerate "always run"
	// policy — scheduling identical to the plain cadence.
	Drift *DriftPolicy
	// ECC, when set, arms each node's correctable-ECC-feedback
	// closed-loop undervolting controller (core.Deployment.SetECCLoop).
	ECC *ECCPolicy
	// WeakGrowthPerDay, when positive, grows every node's DRAM
	// weak-cell population across fast-forward gaps (expected new weak
	// cells per DIMM per day — core.Ecosystem.SetWeakGrowth). Zero
	// leaves the fabricated population static.
	WeakGrowthPerDay float64
}

// DriftPolicy configures drift-gated re-characterization.
type DriftPolicy struct {
	// MarginFrac is the fraction of the advised headroom the
	// accumulated critical-voltage drift must reach before a scheduled
	// campaign is allowed to run.
	MarginFrac float64
}

// ECCPolicy configures closed-loop undervolting.
type ECCPolicy struct {
	// Threshold is the per-window correctable-error count the
	// controller tolerates before backing off (0 = back off on any).
	Threshold int
}

// NodeSpec is one node's complete configuration in a (possibly
// heterogeneous) fleet.
type NodeSpec struct {
	// Part is the node's silicon bin; the zero value means the core
	// default part (the i5-4200U of Table 2).
	Part cpu.PartSpec
	// Mem and MemBytes shape the node's DRAM system and schedulable
	// memory.
	Mem      dram.Config
	MemBytes uint64
	// Mode, RiskTarget and Workload select the node's operating point
	// and guest profile.
	Mode       vfr.Mode
	RiskTarget float64
	Workload   workload.Profile
	// AmbientCPUC and AmbientDIMMC are the initial ambient
	// temperatures; zero means the core defaults (28 / 34 °C).
	AmbientCPUC  float64
	AmbientDIMMC float64
}

// BaseSpec returns the homogeneous per-node spec implied by the
// Config's top-level fields — the starting point Node hooks mutate.
func (cfg Config) BaseSpec() NodeSpec {
	return NodeSpec{
		Mem:        cfg.Mem,
		MemBytes:   cfg.MemBytesPerNode,
		Mode:       cfg.Mode,
		RiskTarget: cfg.RiskTarget,
		Workload:   cfg.Workload,
	}
}

// nodeSpec resolves node i's spec: the Node hook when set, the
// homogeneous base otherwise.
func (cfg Config) nodeSpec(i int) NodeSpec {
	if cfg.Node != nil {
		return cfg.Node(i)
	}
	return cfg.BaseSpec()
}

// StreamDefaults returns the arrival-stream shape Run uses when
// Arrivals is unset: VMs arrivals (3 per node when <= 0) spread over
// the run's horizon with half-horizon lifetimes. Scenario layers that
// pre-generate patterned schedules MUST derive their StreamConfig
// here, so steady and patterned streams can never drift apart.
func (cfg Config) StreamDefaults() workload.StreamConfig {
	n := cfg.VMs
	if n <= 0 {
		n = 3 * cfg.Nodes
	}
	horizon := time.Duration(cfg.Windows) * time.Minute
	if horizon <= 0 {
		horizon = time.Minute
	}
	return workload.StreamConfig{
		N:            n,
		MeanGap:      max(horizon/time.Duration(n+1), time.Minute),
		MeanLifetime: max(horizon/2, 10*time.Minute),
		MinLifetime:  10 * time.Minute,
	}
}

// ModeChange is a mid-run operating-mode switch.
type ModeChange struct {
	Mode       vfr.Mode
	RiskTarget float64
}

// Ambient is a mid-run ambient-temperature change.
type Ambient struct {
	CPUC, DIMMC float64
}

// Perturbation is one window's scenario intervention on one node. Nil
// fields leave the corresponding state untouched; non-nil fields
// persist until the next perturbation changes them (a workload swap
// stays swapped until explicitly reverted).
type Perturbation struct {
	// Workload swaps the node's guest profile (tenant churn, or a
	// droop-virus attack when the profile is workload.DroopVirus).
	Workload *workload.Profile
	// Mode re-enters the deployment at a different mode/risk point.
	Mode *ModeChange
	// Ambient retargets the thermal nodes' environment.
	Ambient *Ambient
}

// DefaultConfig returns a paper-shaped fleet: high-performance mode,
// the UniServer reliability-aware policy, and the testbed DRAM config.
// The migration threshold sits above the risk-target-implied failure
// probability, so proactive draining fires on nodes that are worse
// than their advised point promises, not on every healthy EOP node.
func DefaultConfig(nodes int) Config {
	policy := openstack.UniServerPolicy()
	policy.MigrationThreshold = 0.03
	return Config{
		Nodes:           nodes,
		Seed:            1,
		Mode:            vfr.ModeHighPerformance,
		RiskTarget:      0.01,
		Windows:         120,
		Workload:        workload.WebFrontend(),
		Mem:             dram.Config{Channels: 2, DIMMsPerChannel: 1, DIMMBytes: 8 << 30, DeviceGb: 2, TempC: 45},
		MemBytesPerNode: 64 << 30,
		Policy:          policy,
		Repair:          15 * time.Minute,
	}
}

// EffectiveWorkers resolves a requested worker count the way Run
// does: non-positive means GOMAXPROCS, and the pool never exceeds the
// node count.
func EffectiveWorkers(workers, nodes int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > nodes {
		workers = nodes
	}
	return workers
}

// EffectiveShards resolves a requested shard count the way Run does:
// non-positive means one shard, and never more shards than nodes.
func EffectiveShards(shards, nodes int) int {
	if shards <= 0 {
		shards = 1
	}
	if shards > nodes {
		shards = nodes
	}
	return shards
}

// shardRange returns shard s's contiguous node range [lo, hi) under
// the balanced partition Run uses: sizes differ by at most one, and
// concatenating the ranges in shard order yields [0, nodes) exactly.
func shardRange(nodes, shards, s int) (lo, hi int) {
	return nodes * s / shards, nodes * (s + 1) / shards
}

// NodeSeed derives node i's seed from the fleet seed. It is a pure
// function of (seed, i) — independent of worker count and of every
// other node — so characterization outcomes are stable however the
// pool schedules the work.
func NodeSeed(seed uint64, i int) uint64 {
	return rng.New(seed).SplitLabeled(fmt.Sprintf("fleet/node-%04d", i)).Uint64()
}

// NodeSummary is one node's contribution to the fleet summary.
type NodeSummary struct {
	Name               string
	Model              string
	Seed               uint64
	PredictorAcc       float64
	Crashes            int
	Recharacterized    int
	WindowsAtEOP       int
	CorrectableMasked  int
	DRAMCorrected      int
	MeanCPUTempC       float64
	EnergySavedWh      float64
	FinalSafeVoltageMV int
	// FinalAgeShiftMV and Epochs carry the lifetime engine's margin
	// trajectory; Epochs is nil (and both are fingerprint-silent) for
	// plain single-epoch runs, so pre-lifetime goldens are untouched.
	FinalAgeShiftMV float64             `json:"FinalAgeShiftMV,omitempty"`
	Epochs          []core.EpochSummary `json:"Epochs,omitempty"`
	// Adaptive-policy counters — all zero (JSON- and
	// fingerprint-silent) unless a policy is armed, so policy-less
	// goldens are untouched.
	RecharTriggered  int `json:",omitempty"`
	RecharSuppressed int `json:",omitempty"`
	UndervoltSteps   int `json:",omitempty"`
	ECCBackoffs      int `json:",omitempty"`
}

// Summary aggregates a fleet run. All fields except Workers, Shards
// and WallClock are deterministic functions of the Config.
type Summary struct {
	Nodes   int
	Windows int

	// Node-level aggregates (summed in node order).
	Crashes           int
	Fallbacks         int
	Recharacterized   int
	WindowsAtEOP      int
	CorrectableMasked int
	DRAMCorrected     int
	EnergySavedWh     float64
	// MeanCPUTempC averages the per-node mean die temperatures (node
	// order); ambient-temperature scenarios move it.
	MeanCPUTempC float64

	// Adaptive-policy aggregates (summed in node order): the drift
	// gate's run/skip decisions on scheduled campaigns and the ECC
	// closed loop's undervolt steps and backoffs. All zero when no
	// policy is armed.
	RecharTriggered  int `json:",omitempty"`
	RecharSuppressed int `json:",omitempty"`
	UndervoltSteps   int `json:",omitempty"`
	ECCBackoffs      int `json:",omitempty"`

	// Cloud-level aggregates from the manager.
	Scheduled            int
	Rejected             int
	Migrations           int
	SLAViolations        int
	UserFacingViolations int
	EvictedVMs           int
	EnergyKWh            float64
	MeanAvailability     float64

	// PerNode holds every node's summary in node order — nil when the
	// run streamed summaries through Config.OnNode instead.
	PerNode []NodeSummary

	// Workers, Shards and WallClock describe this particular
	// execution; they are excluded from Fingerprint — and from JSON,
	// so serialized reports stay byte-comparable across runs — so
	// summaries can be compared across worker and shard counts.
	// Realized speedup is measured by running the same Config at
	// different worker counts and comparing WallClock — never
	// estimated from goroutine-elapsed times, which oversubscription
	// inflates.
	Workers   int           `json:"-"`
	Shards    int           `json:"-"`
	WallClock time.Duration `json:"-"`
	// PipelinedWindows counts cloud-layer windows the replay consumed
	// while some node was still computing — the coordinator-overlap
	// telemetry behind the parallel-efficiency work. Like WallClock it
	// describes this execution (scheduling-dependent), not the result,
	// so it is excluded from Fingerprint and JSON.
	PipelinedWindows int `json:"-"`
}

// Fingerprint serializes every deterministic field. Two runs of the
// same Config must produce equal fingerprints regardless of worker
// count — the property the paper-reproduction benchmarks rely on.
// Floats are rendered exactly (hex float format), so even a last-ulp
// divergence — the signature of order-dependent accumulation — fails
// the comparison instead of hiding under decimal rounding.
func (s Summary) Fingerprint() string {
	var b strings.Builder
	fmt.Fprintf(&b, "nodes=%d windows=%d crashes=%d fallbacks=%d rechar=%d eop=%d corr=%d dram=%d savedWh=%s\n",
		s.Nodes, s.Windows, s.Crashes, s.Fallbacks, s.Recharacterized,
		s.WindowsAtEOP, s.CorrectableMasked, s.DRAMCorrected, exactFloat(s.EnergySavedWh))
	fmt.Fprintf(&b, "sched=%d rej=%d migr=%d sla=%d uf=%d evict=%d kwh=%s avail=%s\n",
		s.Scheduled, s.Rejected, s.Migrations, s.SLAViolations,
		s.UserFacingViolations, s.EvictedVMs, exactFloat(s.EnergyKWh), exactFloat(s.MeanAvailability))
	// Adaptive-policy runs make the policy decisions fingerprint-
	// visible. The counters are deterministic functions of the Config,
	// so the gate is too; policy-less runs emit nothing here and keep
	// their pre-policy goldens.
	if s.RecharTriggered+s.RecharSuppressed+s.UndervoltSteps+s.ECCBackoffs > 0 {
		fmt.Fprintf(&b, "policy drift+=%d drift-=%d uv=%d backoff=%d\n",
			s.RecharTriggered, s.RecharSuppressed, s.UndervoltSteps, s.ECCBackoffs)
	}
	for _, n := range s.PerNode {
		fmt.Fprintf(&b, "%s model=%s seed=%d acc=%s crashes=%d rechar=%d eop=%d corr=%d dram=%d tempC=%s savedWh=%s safeMV=%d\n",
			n.Name, n.Model, n.Seed, exactFloat(n.PredictorAcc), n.Crashes, n.Recharacterized,
			n.WindowsAtEOP, n.CorrectableMasked, n.DRAMCorrected, exactFloat(n.MeanCPUTempC),
			exactFloat(n.EnergySavedWh), n.FinalSafeVoltageMV)
		if n.RecharTriggered+n.RecharSuppressed+n.UndervoltSteps+n.ECCBackoffs > 0 {
			fmt.Fprintf(&b, "%s policy drift+=%d drift-=%d uv=%d backoff=%d\n",
				n.Name, n.RecharTriggered, n.RecharSuppressed, n.UndervoltSteps, n.ECCBackoffs)
		}
		// Lifetime runs make the margin trajectory fingerprint-visible:
		// one line per epoch (entry aging drift, published safe point,
		// campaigns run) plus the final drift. Single-epoch runs emit
		// nothing here, so their fingerprints match pre-lifetime goldens.
		for _, ep := range n.Epochs {
			fmt.Fprintf(&b, "%s epoch=%d gap=%dd win=%d age=%s safe=%d rechar=%d\n",
				n.Name, ep.Epoch, ep.GapDays, ep.Windows, exactFloat(ep.AgeShiftMV),
				ep.SafeVoltageMV, ep.Recharacterized)
		}
		if len(n.Epochs) > 0 {
			fmt.Fprintf(&b, "%s lifetime finalAge=%s\n", n.Name, exactFloat(n.FinalAgeShiftMV))
		}
	}
	return b.String()
}

// exactFloat renders f without rounding (hexadecimal significand), so
// fingerprint equality means bit-for-bit float equality.
func exactFloat(f float64) string {
	return strconv.FormatFloat(f, 'x', -1, 64)
}

// epochHealth is one node's compact per-window health record, buffered
// while the node batches through its windows and replayed into the
// cloud layer afterwards. It is the dominant O(nodes × windows) term
// of a population run's memory, so it is packed: a window's
// correctable-error count and thermal alarm level fit comfortably in
// 32 and 8 bits (alarms are 0/1/2; ECC events per one-minute window
// are single digits).
type epochHealth struct {
	failProb     float64
	correctable  int32
	thermalAlarm uint8
	crashed      bool
}

// nodeState is one node's slot: the state that outlives the node's
// fused worker task. The ecosystem and deployment live only inside the
// task — what survives is the compact health sequence, the deployment
// summary, the exported cloud node and (when requested) the log
// buffer. Exactly one worker touches a slot during a shard's parallel
// phase; the coordinator reads slots only after the shard's join.
type nodeState struct {
	name  string
	seed  uint64
	model string

	osNode *openstack.Node
	pre    core.PreDeploymentReport
	depSum core.DeploymentSummary
	log    bytes.Buffer

	// health[w] is the node's window-w report; errWindow is the window
	// the node failed at — cfg.Windows when it didn't, charactWindow
	// for failures before the first window (characterization, mode
	// entry, export).
	health    []epochHealth
	errWindow int

	err error
}

// charactWindow is the errWindow value of failures that precede the
// first runtime window; it sorts before every real window, so
// pre-deployment failures win the earliest-failure selection exactly
// as they did when characterization was its own phase.
const charactWindow = -1

// specOptions resolves a node's spec and seed into the core Options
// both characterization paths build from; keeping it single-sourced is
// what guarantees the cached and direct paths configure identical
// ecosystems.
func specOptions(spec NodeSpec, seed uint64) core.Options {
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

// charactBuilder returns the direct-characterization closure for
// (spec, seed): build the ecosystem, run the full pre-deployment
// pipeline, log into out (nil discards). All three characterization
// paths — direct, cached, archetype — run exactly this, so they can
// never configure divergent ecosystems.
func charactBuilder(spec NodeSpec, seed uint64) func(out io.Writer) (*core.Ecosystem, core.PreDeploymentReport, error) {
	return func(out io.Writer) (*core.Ecosystem, core.PreDeploymentReport, error) {
		opts := specOptions(spec, seed)
		opts.HealthLogOut = out
		eco, err := core.New(opts)
		if err != nil {
			return nil, core.PreDeploymentReport{}, err
		}
		pre, err := eco.PreDeployment()
		if err != nil {
			return nil, core.PreDeploymentReport{}, err
		}
		return eco, pre, nil
	}
}

// characterize is the direct path: build the node's ecosystem and run
// the full pre-deployment pipeline on it. The per-node log buffer (and
// the JSON marshal every window that fills it) exists only when the
// caller asked for the log; the health daemon's triggers and retention
// behave identically either way.
func (s *nodeState) characterize(spec NodeSpec, wantLog bool) (*core.Ecosystem, core.PreDeploymentReport, error) {
	var out io.Writer
	if wantLog {
		out = &s.log
	}
	return charactBuilder(spec, s.seed)(out)
}

// restoreFrom materializes this node's ecosystem from a cached
// characterization: replay the captured log bytes (when logging), then
// stamp the image into the worker's arena with the node's log writer
// and ambient.
func (s *nodeState) restoreFrom(snap *core.Snapshot, arena *core.RestoreArena,
	spec NodeSpec, logBytes []byte, wantLog bool) (*core.Ecosystem, error) {
	ropts := core.RestoreOptions{
		AmbientCPUC:  spec.AmbientCPUC,
		AmbientDIMMC: spec.AmbientDIMMC,
	}
	if wantLog {
		s.log.Write(logBytes)
		ropts.HealthLogOut = &s.log
	}
	return snap.RestoreInto(arena, ropts)
}

// characterizeCached is the snapshot path: the cache runs the direct
// characterization at most once per (seed, spec) key — logging into a
// cache-owned buffer — and every consumer, the characterizing node
// included, replays the captured log bytes and stamps an independent
// ecosystem from the image. Routing the first consumer through the
// stamp too keeps the two paths' outputs pinned to each other: any
// restore imperfection
// shows up as a fingerprint divergence against the direct path's
// goldens instead of hiding behind a warm cache.
func (s *nodeState) characterizeCached(cache *CharactCache, arena *core.RestoreArena,
	spec NodeSpec, wantLog bool) (*core.Ecosystem, core.PreDeploymentReport, error) {
	snap, pre, logBytes, err := cache.characterized(charactKey(s.seed, spec, wantLog), wantLog,
		charactBuilder(spec, s.seed))
	if err != nil {
		return nil, core.PreDeploymentReport{}, err
	}
	eco, err := s.restoreFrom(snap, arena, spec, logBytes, wantLog)
	if err != nil {
		return nil, core.PreDeploymentReport{}, err
	}
	return eco, pre, nil
}

// characterizeArchetype is the bin-clone path: the whole archetype bin
// shares one characterization, seeded by the bin (ArchetypeSeed), and
// each node restores a copy and reseeds its runtime streams with its
// own node seed. Which node populates the bin entry first can never
// matter — the bin seed, not the node seed, drives the campaign — so
// results are worker- and shard-invariant by construction. keys is the
// calling worker's memo of resolved bins.
func (s *nodeState) characterizeArchetype(cache *CharactCache, arena *core.RestoreArena, keys archetypeKeys,
	fleetSeed uint64, spec NodeSpec, wantLog bool) (*core.Ecosystem, core.PreDeploymentReport, error) {
	bin := keys.resolve(fleetSeed, spec, wantLog)
	snap, pre, logBytes, err := cache.characterized(bin.key, wantLog,
		charactBuilder(spec, bin.seed))
	if err != nil {
		return nil, core.PreDeploymentReport{}, err
	}
	eco, err := s.restoreFrom(snap, arena, spec, logBytes, wantLog)
	if err != nil {
		return nil, core.PreDeploymentReport{}, err
	}
	if err := eco.Reseed(s.seed); err != nil {
		return nil, core.PreDeploymentReport{}, err
	}
	return eco, pre, nil
}

// Run executes a full fleet lifecycle: every node's fused
// characterize→deploy→step task fans out across a persistent worker
// pool in shard order; the coordinator folds each shard into the
// summary the moment its last node finishes; and a replay goroutine
// assembles the cluster, streams the VM arrivals and feeds the
// buffered health into the cloud layer window by window as windows
// complete — all three overlapped, all three order-preserving, so
// results are byte-identical to the strictly-phased engine at any
// worker and shard count.
func Run(cfg Config) (Summary, error) {
	start := time.Now()
	if cfg.Nodes <= 0 {
		return Summary{}, errors.New("fleet: need at least one node")
	}
	if cfg.Windows < 0 {
		return Summary{}, errors.New("fleet: negative window count")
	}
	if cfg.Lifetime != nil {
		if err := cfg.Lifetime.Validate(); err != nil {
			return Summary{}, fmt.Errorf("fleet: lifetime plan: %w", err)
		}
		// The plan owns the window axis: the cloud layer replays the
		// concatenated epoch windows.
		cfg.Windows = cfg.Lifetime.TotalWindows()
	}
	workers := EffectiveWorkers(cfg.Workers, cfg.Nodes)
	shards := EffectiveShards(cfg.Shards, cfg.Nodes)
	if cfg.Repair <= 0 {
		cfg.Repair = 15 * time.Minute
	}
	charact := cfg.Charact
	if charact == nil && cfg.Archetypes {
		// The cache is where archetype dedup lives: a run without a
		// caller-shared cache gets a run-private one.
		charact = NewCharactCache()
	}

	states := make([]*nodeState, cfg.Nodes)
	for i := range states {
		states[i] = &nodeState{
			name:      fmt.Sprintf("uniserver-%02d", i),
			seed:      NodeSeed(cfg.Seed, i),
			errWindow: cfg.Windows,
		}
	}

	wantLog := cfg.HealthLogOut != nil

	// The pipeline's progress ledger. Workers publish progress through
	// atomic counters (per-window arrival, cloud exports, per-shard
	// completion) and ring the one condition variable only on the
	// *last* arrival of each kind — O(windows + shards) broadcasts for
	// the whole run, not O(nodes × windows) — while the coordinator's
	// fold loop, the dispatcher and the replay goroutine wait on the
	// gate for the specific counter they need. The atomic
	// read-modify-writes form the happens-before chain that makes the
	// buffered health and exported nodes safely visible to the replay
	// goroutine (and keeps the whole structure -race-clean).
	var (
		gateMu sync.Mutex
		gate   = sync.NewCond(&gateMu)
		// windowArrived[w] counts nodes that have buffered window w's
		// health record; the replay goroutine consumes window w once it
		// reaches cfg.Nodes.
		windowArrived = make([]atomic.Int32, cfg.Windows)
		// exportedNodes counts cloud-layer exports; the manager
		// assembles once it reaches cfg.Nodes.
		exportedNodes atomic.Int32
		// finishedNodes counts completed fused tasks — telemetry only
		// (a replayed window is "pipelined" if some node was still
		// computing when it replayed).
		finishedNodes atomic.Int32
		// shardLeft[s] counts shard s's unfinished nodes; the fold loop
		// drains shard s when it reaches zero.
		shardLeft = make([]atomic.Int32, shards)
		// processedShards counts shards the fold loop has drained
		// (folded or skipped); the dispatcher uses it to stay at most
		// two shards ahead of the fold.
		processedShards atomic.Int32
		// runFailed flips once on the first node failure so every gate
		// waiter can abort instead of blocking on progress that will
		// never come.
		runFailed atomic.Bool
	)
	for sh := 0; sh < shards; sh++ {
		lo, hi := shardRange(cfg.Nodes, shards, sh)
		shardLeft[sh].Store(int32(hi - lo))
	}
	// notify wakes every gate waiter. Broadcast under the mutex pairs
	// with the waiters' check-then-Wait loops: a counter that reaches
	// its target between a waiter's check and its Wait cannot lose the
	// wakeup, because this broadcast cannot run until the waiter is
	// parked.
	notify := func() {
		gateMu.Lock()
		gate.Broadcast()
		gateMu.Unlock()
	}

	// failFloor is the earliest failing window any node has reported:
	// once a run is doomed, healthy nodes stop at that window instead
	// of simulating out their full horizon (their buffered health
	// always covers [0, floor), which is all the replay could consume
	// before aborting). Purely an early-exit; results on the success
	// path are untouched. When a health log was requested the early
	// exit is disabled: where a healthy node happens to observe the
	// floor depends on goroutine scheduling, and a log truncated at a
	// scheduling-dependent window would break the contract that the
	// flushed log is byte-identical across runs — on the error path,
	// exactly where the diagnostics matter most.
	earlyExit := cfg.HealthLogOut == nil
	var failFloor atomic.Int64
	failFloor.Store(int64(cfg.Windows))
	reportFail := func(w int) {
		if w < 0 {
			w = 0
		}
		for {
			cur := failFloor.Load()
			if int64(w) >= cur || failFloor.CompareAndSwap(cur, int64(w)) {
				break
			}
		}
		runFailed.Store(true)
		notify()
	}

	// runNode is one node's fused lifecycle — characterization, mode
	// entry, cloud export, the full window sequence, and the final
	// deployment summary. The ecosystem and deployment are locals: when
	// the task returns, only the compact slot state survives — nothing
	// retained aliases ecosystem internals, which is what licenses the
	// worker's restore arena to overwrite the graph in place for the
	// next node. At most `workers` ecosystems exist at any instant,
	// however many nodes the fleet has; cached-path nodes reuse their
	// worker's one arena graph instead of rebuilding it.
	runNode := func(i int, arena *core.RestoreArena, keys archetypeKeys) {
		s := states[i]
		failNode := func(w int, err error) {
			s.err, s.errWindow = err, w
			reportFail(w)
		}
		spec := cfg.nodeSpec(i)
		var (
			eco *core.Ecosystem
			pre core.PreDeploymentReport
			err error
		)
		switch {
		case cfg.Archetypes:
			eco, pre, err = s.characterizeArchetype(charact, arena, keys, cfg.Seed, spec, wantLog)
		case charact != nil:
			eco, pre, err = s.characterizeCached(charact, arena, spec, wantLog)
		default:
			eco, pre, err = s.characterize(spec, wantLog)
		}
		if err != nil {
			failNode(charactWindow, fmt.Errorf("fleet: node %d characterization: %w", i, err))
			return
		}
		s.model = eco.Machine.Spec.Model
		s.pre = pre
		dep, err := eco.StartDeployment(spec.Mode, spec.RiskTarget, spec.Workload)
		if err != nil {
			failNode(charactWindow, fmt.Errorf("fleet: node %d mode entry: %w", i, err))
			return
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
		n, err := eco.Node(s.name, spec.MemBytes)
		if err != nil {
			failNode(charactWindow, fmt.Errorf("fleet: node %d export: %w", i, err))
			return
		}
		s.osNode = n
		if exportedNodes.Add(1) == int32(cfg.Nodes) {
			// Last export: the replay goroutine can assemble the manager
			// and start consuming completed windows.
			notify()
		}

		// Batched window stepping: the node runs its entire window
		// sequence here, buffering a compact health record per window.
		// Node simulations are mutually independent and independent of
		// the cloud layer (the manager never feeds back into a node's
		// ecosystem), so batching removes the per-window barrier — and
		// its goroutine churn — without moving a single rng draw. The
		// scenario interventions land immediately before the window they
		// target: Perturb is pure in (i, w) and touches only node i's
		// state. The buffer is allocated full-length up front and
		// written by index: the replay goroutine reads s.health[w]
		// concurrently (gated on windowArrived[w]), so the slice header
		// must never move again once the first window publishes.
		s.health = make([]epochHealth, cfg.Windows)
		stepWindow := func(w int) bool {
			if earlyExit && int64(w) >= failFloor.Load() {
				return false
			}
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
						failNode(w, fmt.Errorf("fleet: node %d window %d mode switch: %w", i, w, err))
						return false
					}
				}
			}
			rep, err := dep.Step()
			if err != nil {
				failNode(w, fmt.Errorf("fleet: node %d window %d: %w", i, w, err))
				return false
			}
			fp, err := eco.PredictedFailProb()
			if err != nil {
				failNode(w, fmt.Errorf("fleet: node %d window %d: %w", i, w, err))
				return false
			}
			s.health[w] = epochHealth{
				failProb:     fp,
				correctable:  int32(rep.Correctable),
				thermalAlarm: uint8(rep.ThermalAlarm),
				crashed:      rep.Crashed,
			}
			if windowArrived[w].Add(1) == int32(cfg.Nodes) {
				// Last node to buffer window w: the replay goroutine can
				// consume it while later windows are still computing.
				notify()
			}
			return true
		}
		// The lifetime axis: each epoch batches its windows exactly as
		// the single-epoch engine does; between epochs the node
		// fast-forwards the gap and honours the re-characterization
		// cadence. Gap failures are charged to the first window of the
		// entered epoch — the earliest window the failure can shadow.
		w := 0
		epochs := 1
		if cfg.Lifetime != nil {
			epochs = cfg.Lifetime.Epochs()
		}
		for ei := 0; ei < epochs; ei++ {
			if ei > 0 {
				if earlyExit && int64(w) >= failFloor.Load() {
					return
				}
				if err := dep.FastForward(cfg.Lifetime.Gaps[ei-1]); err != nil {
					failNode(w, fmt.Errorf("fleet: node %d epoch %d gap: %w", i, ei, err))
					return
				}
				if _, err := dep.MaybeRecharacterize(); err != nil {
					failNode(w, fmt.Errorf("fleet: node %d epoch %d entry campaign: %w", i, ei, err))
					return
				}
			}
			epochWindows := cfg.Windows
			if cfg.Lifetime != nil {
				epochWindows = cfg.Lifetime.EpochWindows[ei]
			}
			for k := 0; k < epochWindows; k++ {
				if !stepWindow(w) {
					return
				}
				w++
			}
		}
		if s.err == nil {
			s.depSum = dep.Summary()
		}
	}

	// flushHealthLog concatenates every node's JSON-lines log in node
	// order. It also runs on error paths (best effort) so a failed run
	// still leaves its diagnostics behind — the moment the log matters
	// most. Buffering until here is deliberate: streaming from workers
	// would interleave nodes nondeterministically.
	flushHealthLog := func() error {
		if cfg.HealthLogOut == nil {
			return nil
		}
		for _, s := range states {
			if _, err := cfg.HealthLogOut.Write(s.log.Bytes()); err != nil {
				return fmt.Errorf("fleet: writing health log: %w", err)
			}
		}
		return nil
	}
	fail := func(err error) (Summary, error) {
		_ = flushHealthLog()
		return Summary{}, err
	}

	// The node-level merge, shared by every shard: fold one node into
	// the running aggregates in node order — each float accumulator
	// sees its contributions in exactly the order the unsharded,
	// non-streaming engine added them, which is what makes shard count
	// and OnNode fingerprint-invariant on the aggregate lines.
	sum := Summary{
		Nodes:   cfg.Nodes,
		Windows: cfg.Windows,
		Workers: workers,
		Shards:  shards,
	}
	if cfg.OnNode == nil {
		sum.PerNode = make([]NodeSummary, 0, cfg.Nodes)
	}
	foldNode := func(s *nodeState) {
		d := s.depSum
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
		ns := NodeSummary{
			Name:               s.name,
			Model:              s.model,
			Seed:               s.seed,
			PredictorAcc:       s.pre.PredictorAcc,
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
			ns.FinalAgeShiftMV = d.FinalAgeShiftMV
		}
		// The fold is the last reader of the deployment summary and the
		// characterization report: zero both so the only per-node state
		// retained to the replay phase is the compact health buffer and
		// the exported cloud-layer node. pre.Margins in particular keeps
		// a node's whole EOP margin table alive — an O(nodes × cores)
		// term that would dominate peak heap at 100k nodes.
		s.depSum = core.DeploymentSummary{}
		s.pre = core.PreDeploymentReport{}
		if cfg.OnNode != nil {
			cfg.OnNode(ns)
			return
		}
		sum.PerNode = append(sum.PerNode, ns)
	}

	// ---- Pipelined execution ----
	//
	// Three overlapped roles replace the old strictly-phased
	// compute-then-fold-then-replay sequence, with every ordered
	// operation still issued from exactly one goroutine in exactly the
	// old order:
	//
	//   dispatcher   feeds node indices to the worker pool in node
	//                order, shard by shard, staying at most two shards
	//                ahead of the fold so the unfolded per-node backlog
	//                (pre-reports, deployment summaries) stays bounded
	//                by shard size, not fleet size;
	//   workers      run the fused node tasks (unchanged);
	//   coordinator  folds shard s in node order the moment its last
	//                node finishes — while shard s+1 is still
	//                computing;
	//   replay       advances the cloud layer through window w the
	//                moment all nodes have buffered w — while later
	//                windows are still computing.
	//
	// Fingerprint identity is structural: folds still happen shard
	// order × node order on one goroutine, and the replay still feeds
	// the manager byte-identical inputs window order × node order on
	// one goroutine. Only the *interleaving* of those two serial
	// streams with worker compute changed, and neither stream reads
	// anything a worker still writes (window gating and the export
	// count provide the happens-before edges).

	// Replay goroutine: assemble the cluster once every node has
	// exported, then chase the windowArrived frontier.
	type replayResult struct {
		mgr        *openstack.Manager
		evictedVMs int
		pipelined  int
		err        error
	}
	replayCh := make(chan replayResult, 1)
	go func() {
		var res replayResult
		defer func() { replayCh <- res }()
		// Deterministic VM arrival stream for the scheduler to chew on
		// — an explicit schedule (scenario layers) or the default
		// exponential stream. Pure function of the Config, so it can
		// build before the fleet finishes exporting.
		arrivals := cfg.Arrivals
		if arrivals == nil {
			var err error
			arrivals, err = workload.Stream(cfg.StreamDefaults(), rng.New(cfg.Seed).SplitLabeled("fleet/arrivals"))
			if err != nil {
				res.err = err
				return
			}
		}
		gateMu.Lock()
		for exportedNodes.Load() < int32(cfg.Nodes) && !runFailed.Load() {
			gate.Wait()
		}
		aborted := exportedNodes.Load() < int32(cfg.Nodes)
		gateMu.Unlock()
		if aborted {
			// A node failed before exporting; the run is doomed and the
			// coordinator will report the earliest node failure.
			return
		}
		// Cluster assembly in node order.
		osNodes := make([]*openstack.Node, len(states))
		for i, s := range states {
			osNodes[i] = s.osNode
		}
		mgr, err := openstack.NewManager(cfg.Policy, osNodes...)
		if err != nil {
			res.err = err
			return
		}
		res.mgr = mgr
		// The replay advances the cloud layer in window order over the
		// buffered health: arrivals and departures resolve before each
		// epoch (so newly placed VMs are exposed to that window's
		// crash/migration outcome, as in the stream simulator), then
		// the epoch's health lands in the scheduler in node order. The
		// manager sees byte-identical inputs in the identical order as
		// under per-window barriers — and as at any other worker or
		// shard count — because window w is consumed only after every
		// node has buffered it.
		cursor := openstack.NewStreamCursor(arrivals)
		health := make([]openstack.NodeHealth, len(states))
		for w := 0; w < cfg.Windows; w++ {
			gateMu.Lock()
			for windowArrived[w].Load() < int32(cfg.Nodes) && !runFailed.Load() {
				gate.Wait()
			}
			aborted := windowArrived[w].Load() < int32(cfg.Nodes)
			gateMu.Unlock()
			if aborted {
				// Some node failed at or before w and will never buffer
				// it; the manager's partial replay is discarded.
				return
			}
			if finishedNodes.Load() < int32(cfg.Nodes) {
				res.pipelined++
			}
			now := time.Duration(w) * time.Minute
			cursor.Advance(mgr, now)
			for i, s := range states {
				h := s.health[w]
				health[i] = openstack.NodeHealth{
					Name:         s.name,
					FailProb:     h.failProb,
					Crashed:      h.crashed,
					Correctable:  int(h.correctable),
					ThermalAlarm: int(h.thermalAlarm),
				}
			}
			stats, err := mgr.StepFleet(health, time.Minute, now, cfg.Repair)
			if err != nil {
				res.err = err
				return
			}
			res.evictedVMs += stats.EvictedVMs
		}
	}()

	// Worker pool: persistent across shards (no per-shard goroutine
	// churn or join barrier), consuming node indices in dispatch order.
	type job struct{ node, shard int }
	jobs := make(chan job)
	var wg sync.WaitGroup
	for wk := 0; wk < workers; wk++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One restore arena per worker goroutine: the cached paths
			// stamp each node's ecosystem into it, reusing the graph
			// built by the worker's first node. The archetype-key memo
			// is the worker's too, so bin lookups never lock.
			arena := core.NewRestoreArena()
			keys := archetypeKeys{}
			for j := range jobs {
				runNode(j.node, arena, keys)
				finishedNodes.Add(1)
				if shardLeft[j.shard].Add(-1) == 0 {
					// Last node of the shard: the fold loop can drain it.
					notify()
				}
			}
		}()
	}

	// Dispatcher: node order, shard by shard, gated two shards ahead of
	// the fold. Waiting on processedShards (not mere shard completion)
	// keeps at most two shards' unfolded state alive — the computing
	// shard and the one the coordinator is folding — preserving the
	// bounded-backlog property the 100k-node scale-out relies on, while
	// never idling the pool at a shard boundary the way the old
	// per-shard join barrier did.
	go func() {
		defer close(jobs)
		for sh := 0; sh < shards; sh++ {
			if sh >= 2 {
				gateMu.Lock()
				for processedShards.Load() < int32(sh-1) && !runFailed.Load() {
					gate.Wait()
				}
				gateMu.Unlock()
			}
			lo, hi := shardRange(cfg.Nodes, shards, sh)
			for i := lo; i < hi; i++ {
				jobs <- job{node: i, shard: sh}
			}
		}
	}()

	// Fold loop (coordinator): shards drain strictly in shard order,
	// nodes within a shard in node order, exactly as the phased engine
	// folded them. A shard whose range (or any earlier shard) holds a
	// failed node is left unfolded — the run is doomed and returns the
	// earliest failure below — so OnNode consumers only ever see
	// summaries from the error-free prefix.
	failed := false
	for sh := 0; sh < shards; sh++ {
		gateMu.Lock()
		for shardLeft[sh].Load() > 0 {
			gate.Wait()
		}
		gateMu.Unlock()
		if !failed {
			lo, hi := shardRange(cfg.Nodes, shards, sh)
			for i := lo; i < hi; i++ {
				if states[i].err != nil {
					failed = true
					break
				}
			}
			if !failed {
				for i := lo; i < hi; i++ {
					foldNode(states[i])
				}
			}
		}
		processedShards.Add(1)
		notify()
	}
	wg.Wait()

	// Join the replay before touching any error path: after this
	// receive no goroutine of this run is live.
	rr := <-replayCh
	if failed {
		// Earliest failing window wins; ties resolve to the lowest node
		// index (states are scanned in node order). Pre-deployment
		// failures carry charactWindow and therefore outrank every
		// stepping failure, exactly as when characterization was a
		// separate phase — and exactly as when replay errors could not
		// coexist with node failures: a doomed run reports its node
		// failure, never the aborted replay.
		failWindow, failErr := cfg.Windows, error(nil)
		for _, s := range states {
			if s.err != nil && s.errWindow < failWindow {
				failWindow, failErr = s.errWindow, s.err
			}
		}
		return fail(failErr)
	}
	if rr.err != nil {
		return fail(rr.err)
	}
	mgr := rr.mgr

	sum.MeanCPUTempC /= float64(cfg.Nodes)
	sum.Scheduled = mgr.Scheduled
	sum.Rejected = mgr.Rejected
	sum.Migrations = mgr.Migrations
	sum.SLAViolations = mgr.SLAViolations
	sum.UserFacingViolations = mgr.UserFacingViolations
	sum.EnergyKWh = mgr.EnergyJ / 3.6e6
	sum.MeanAvailability = mgr.MeanAvailability()
	sum.EvictedVMs = rr.evictedVMs
	sum.PipelinedWindows = rr.pipelined

	if err := flushHealthLog(); err != nil {
		return sum, err
	}
	sum.WallClock = time.Since(start)
	return sum, nil
}
