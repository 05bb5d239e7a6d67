// Command benchgraph renders the repo's run-over-run benchmark
// histories (BENCH_fleet.json, BENCH_campaign.json) as a markdown
// report: one table per benchmark plus an ASCII sparkline of the
// ns/op trajectory, so a perf trend is visible at a glance — in the
// terminal, in a CI artifact, or pasted into a PR. It is read-only:
// the benchmarks own the histories; this tool only draws them.
//
//	go run ./cmd/benchgraph                 # render both histories to stdout
//	go run ./cmd/benchgraph -o BENCH_HISTORY.md
//	go run ./cmd/benchgraph -merge artifact/BENCH_fleet.json
//
// -merge is the one write operation: it folds the records of a
// CI-produced bench artifact into the committed history, deduplicated
// by date+environment, so committing a runner's multi-core
// measurements (the records that arm the CI-class regression fences)
// is one command plus `git commit` instead of hand-edited JSON.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("benchgraph: ")
	fleetPath := flag.String("fleet", "BENCH_fleet.json", "fleet benchmark history (empty to skip)")
	campaignPath := flag.String("campaign", "BENCH_campaign.json", "campaign benchmark history (empty to skip)")
	outPath := flag.String("o", "", "write the markdown report here (default stdout)")
	mergePath := flag.String("merge", "", "merge the records of this downloaded bench artifact into -fleet, then exit")
	flag.Parse()

	if *mergePath != "" {
		if err := mergeFleet(*fleetPath, *mergePath); err != nil {
			log.Fatal(err)
		}
		return
	}

	var out io.Writer = os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			log.Fatal(err)
		}
		defer func() {
			if err := f.Close(); err != nil {
				log.Fatal(err)
			}
		}()
		out = f
	}
	fmt.Fprintf(out, "# Benchmark history\n")
	if *fleetPath != "" {
		if err := renderFleet(out, *fleetPath); err != nil {
			log.Fatal(err)
		}
	}
	if *campaignPath != "" {
		if err := renderCampaign(out, *campaignPath); err != nil {
			log.Fatal(err)
		}
	}
}

// fleetFile mirrors BENCH_fleet.json (the fields this tool draws).
type fleetFile struct {
	Benchmark string `json:"benchmark"`
	Nodes     int    `json:"nodes"`
	Windows   int    `json:"windows"`
	Records   []struct {
		Date        string `json:"date"`
		Env         string `json:"env"`
		GOMAXPROCS  int    `json:"gomaxprocs"`
		Fingerprint string `json:"fingerprint_sha256"`
		Variants    []struct {
			Workers    int     `json:"workers"`
			NsPerOp    int64   `json:"ns_per_op"`
			Speedup    float64 `json:"speedup_vs_1_worker"`
			Efficiency float64 `json:"efficiency"`
			PeakBytes  int64   `json:"peak_bytes"`
		} `json:"variants"`
	} `json:"records"`
	Restore []struct {
		Date            string  `json:"date"`
		Env             string  `json:"env"`
		GOMAXPROCS      int     `json:"gomaxprocs"`
		LegacyNsPerOp   int64   `json:"legacy_ns_per_op"`
		LegacyAllocs    float64 `json:"legacy_allocs_per_op"`
		TemplateNsPerOp int64   `json:"template_ns_per_op"`
		TemplateAllocs  float64 `json:"template_allocs_per_op"`
		Speedup         float64 `json:"speedup_vs_legacy"`
	} `json:"restore"`
}

// campaignFile mirrors BENCH_campaign.json.
type campaignFile struct {
	Benchmark string `json:"benchmark"`
	Scenarios int    `json:"scenarios"`
	Seeds     int    `json:"seeds"`
	Nodes     int    `json:"nodes"`
	Windows   int    `json:"windows"`
	BeforeNs  int64  `json:"before_ns_per_op"`
	Records   []struct {
		Date        string  `json:"date"`
		Env         string  `json:"env"`
		GOMAXPROCS  int     `json:"gomaxprocs"`
		NsPerOp     int64   `json:"ns_per_op"`
		Speedup     float64 `json:"speedup_vs_pre_optimization"`
		CacheHits   uint64  `json:"charact_cache_hits"`
		CacheMisses uint64  `json:"charact_cache_misses"`
	} `json:"records"`
}

// mergeHistoryCap mirrors the benchmarks' own history cap: merging
// never grows a record slice past what a benchmark run would keep.
const mergeHistoryCap = 100

// mergeFleet folds the "records" and "restore" histories of a
// downloaded bench artifact into the committed fleet history. It works
// on raw JSON values (json.Number, no struct round-trip) so fields
// this tool does not draw survive the rewrite, and deduplicates by
// date+env+gomaxprocs — re-merging the same artifact is a no-op.
func mergeFleet(committedPath, artifactPath string) error {
	var committed, artifact map[string]any
	if err := loadRaw(committedPath, &committed); err != nil {
		return err
	}
	if err := loadRaw(artifactPath, &artifact); err != nil {
		return err
	}
	added := 0
	for _, key := range []string{"records", "restore"} {
		have, _ := committed[key].([]any)
		seen := make(map[string]bool, len(have))
		for _, r := range have {
			seen[recordIdentity(r)] = true
		}
		incoming, _ := artifact[key].([]any)
		for _, r := range incoming {
			if id := recordIdentity(r); !seen[id] {
				have = append(have, r)
				seen[id] = true
				added++
			}
		}
		if len(have) > mergeHistoryCap {
			have = have[len(have)-mergeHistoryCap:]
		}
		if have != nil {
			committed[key] = have
		}
	}
	buf, err := json.MarshalIndent(committed, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(committedPath, append(buf, '\n'), 0o644); err != nil {
		return err
	}
	log.Printf("merged %d new record(s) from %s into %s", added, artifactPath, committedPath)
	return nil
}

// recordIdentity keys a history record for merge deduplication. Dated
// records (every record the current benchmarks write) are identified
// by when and where they were measured; anything undated falls back to
// its full serialized form.
func recordIdentity(r any) string {
	if m, ok := r.(map[string]any); ok {
		if d, _ := m["date"].(string); d != "" {
			return fmt.Sprintf("%s|%v|%v", d, m["env"], m["gomaxprocs"])
		}
	}
	b, _ := json.Marshal(r)
	return string(b)
}

// loadRaw decodes path preserving numeric literals (json.Number), for
// the merge path that rewrites the file.
func loadRaw(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.UseNumber()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func load(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func renderFleet(out io.Writer, path string) error {
	var f fleetFile
	if err := load(path, &f); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n## %s (%d nodes × %d windows)\n\n", f.Benchmark, f.Nodes, f.Windows)
	fmt.Fprintf(out, "| run | date | env | gomaxprocs | ns/op @1w | best ns/op | best speedup | efficiency | scaling | peak heap |\n")
	fmt.Fprintf(out, "|----:|------|-----|-----------:|----------:|-----------:|-------------:|-----------:|---------|----------:|\n")
	var series, effSeries []float64
	for i, r := range f.Records {
		var oneW, best int64
		var bestSpeed float64
		// Efficiency (speedup per worker) and peak heap are reported at
		// the record's highest worker count: that is where the ROADMAP's
		// scaling stall lives and where memory pressure peaks. Old
		// records predate both fields; efficiency falls back to
		// speedup/workers, peak renders as a dash.
		var maxWorkers int
		var eff float64
		var peak int64
		// recordEffs is the record's efficiency at each worker count, in
		// variant order — the per-record scaling curve. Rendered on an
		// absolute 0..1 scale (1.0 = perfect scaling) so the curves are
		// comparable across rows: a record whose glyphs sag left-to-right
		// is losing efficiency as workers are added.
		var recordEffs []float64
		for _, v := range r.Variants {
			if v.Workers == 1 {
				oneW = v.NsPerOp
			}
			if best == 0 || v.NsPerOp < best {
				best = v.NsPerOp
			}
			if v.Speedup > bestSpeed {
				bestSpeed = v.Speedup
			}
			ve := v.Efficiency
			if ve == 0 && v.Workers > 0 {
				ve = v.Speedup / float64(v.Workers)
			}
			recordEffs = append(recordEffs, ve)
			if v.Workers > maxWorkers {
				maxWorkers = v.Workers
				eff = ve
				peak = v.PeakBytes
			}
		}
		fmt.Fprintf(out, "| %d | %s | %s | %d | %s | %s | %.2fx | %.2f @%dw | `%s` | %s |\n",
			i+1, orDash(r.Date), orDash(r.Env), r.GOMAXPROCS, ns(oneW), ns(best), bestSpeed,
			eff, maxWorkers, absSparkline(recordEffs, 0, 1), mib(peak))
		series = append(series, float64(oneW))
		effSeries = append(effSeries, eff)
	}
	fmt.Fprintf(out, "\nns/op @1 worker, run over run (lower is better):\n\n    %s\n", sparkline(series))
	fmt.Fprintf(out, "\nmax-worker parallel efficiency (speedup/worker), run over run on a 0..1 scale (higher is better):\n\n    %s\n",
		absSparkline(effSeries, 0, 1))
	if len(f.Restore) > 0 {
		renderRestore(out, f)
	}
	return nil
}

// renderRestore draws BenchmarkSnapshotRestore's history: the fixed
// per-node cost of materializing a cached characterization, a cold
// stamp into a fresh arena vs the warm stamp the fleet runs. The cold
// column holds the legacy deep restore for records written before
// snapshot format 3, which replaced it; the JSON field names stayed,
// so the history is one series.
func renderRestore(out io.Writer, f fleetFile) {
	fmt.Fprintf(out, "\n## BenchmarkSnapshotRestore (per-node restore from a cached characterization)\n\n")
	fmt.Fprintf(out, "| run | date | env | gomaxprocs | cold (legacy before snapshot format 3) ns/op | cold allocs/op | template ns/op | template allocs/op | speedup |\n")
	fmt.Fprintf(out, "|----:|------|-----|-----------:|---------------------------------------------:|---------------:|---------------:|-------------------:|--------:|\n")
	var series []float64
	for i, r := range f.Restore {
		fmt.Fprintf(out, "| %d | %s | %s | %d | %s | %.0f | %s | %.0f | %.2fx |\n",
			i+1, orDash(r.Date), orDash(r.Env), r.GOMAXPROCS,
			nsFine(r.LegacyNsPerOp), r.LegacyAllocs, nsFine(r.TemplateNsPerOp), r.TemplateAllocs, r.Speedup)
		series = append(series, float64(r.TemplateNsPerOp))
	}
	fmt.Fprintf(out, "\ntemplate ns/op, run over run (lower is better):\n\n    %s\n", sparkline(series))
}

// mib renders a byte count as MiB; zero (pre-field records) as a dash.
func mib(v int64) string {
	if v == 0 {
		return "—"
	}
	return fmt.Sprintf("%.1fMiB", float64(v)/(1<<20))
}

func renderCampaign(out io.Writer, path string) error {
	var f campaignFile
	if err := load(path, &f); err != nil {
		return err
	}
	fmt.Fprintf(out, "\n## %s (%d presets × %d seeds, %d nodes × %d windows)\n\n",
		f.Benchmark, f.Scenarios, f.Seeds, f.Nodes, f.Windows)
	fmt.Fprintf(out, "pre-optimization reference: %s ns/op\n\n", ns(f.BeforeNs))
	fmt.Fprintf(out, "| run | date | env | gomaxprocs | ns/op | speedup vs pre-opt | cache hits/misses |\n")
	fmt.Fprintf(out, "|----:|------|-----|-----------:|------:|-------------------:|------------------:|\n")
	var series []float64
	for i, r := range f.Records {
		fmt.Fprintf(out, "| %d | %s | %s | %d | %s | %.2fx | %d/%d |\n",
			i+1, orDash(r.Date), orDash(r.Env), r.GOMAXPROCS, ns(r.NsPerOp), r.Speedup, r.CacheHits, r.CacheMisses)
		series = append(series, float64(r.NsPerOp))
	}
	fmt.Fprintf(out, "\nns/op, run over run (lower is better):\n\n    %s\n", sparkline(series))
	return nil
}

// nsFine renders nanoseconds at two-decimal ms resolution, for
// operations (like a single restore) that complete in a few ms.
func nsFine(v int64) string {
	if v == 0 {
		return "—"
	}
	return fmt.Sprintf("%.2fms", float64(v)/1e6)
}

// ns renders nanoseconds human-readably (ms resolution).
func ns(v int64) string {
	if v == 0 {
		return "—"
	}
	return fmt.Sprintf("%.0fms", float64(v)/1e6)
}

func orDash(s string) string {
	if s == "" {
		return "—"
	}
	return s
}

// absSparkline draws the series on a fixed lo..hi scale (values
// clamped), so separately-rendered lines are directly comparable —
// used for efficiency, whose natural scale is 0..1.
func absSparkline(series []float64, lo, hi float64) string {
	if len(series) == 0 {
		return "(no records)"
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	var b strings.Builder
	for _, v := range series {
		frac := (v - lo) / (hi - lo)
		if frac < 0 {
			frac = 0
		}
		if frac > 1 {
			frac = 1
		}
		b.WriteRune(glyphs[int(frac*float64(len(glyphs)-1))])
	}
	return b.String()
}

// sparkline draws the series with the classic eight block glyphs,
// scaled min→max; a flat series renders mid-height.
func sparkline(series []float64) string {
	if len(series) == 0 {
		return "(no records)"
	}
	glyphs := []rune("▁▂▃▄▅▆▇█")
	lo, hi := series[0], series[0]
	for _, v := range series {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	var b strings.Builder
	for _, v := range series {
		idx := len(glyphs) / 2
		if hi > lo {
			idx = int((v - lo) / (hi - lo) * float64(len(glyphs)-1))
		}
		b.WriteRune(glyphs[idx])
	}
	return b.String()
}
