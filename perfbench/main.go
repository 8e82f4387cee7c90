// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the system from a seed, checks every answer,
// and prints each metric by name with its unit; the last line of its
// standard output is one JSON result object.
//
//	go run . --workload fleet-unique --seed 1 --seconds 10 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics; with
// --trace 1 the run also records spans at every layer boundary it calls
// into, writes them to a span file, and the result carries the
// per-layer metrics instead. See README.md for the workloads and the
// metric definitions.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(*config) (*report, error){
	"fleet-zipf":    runFleetZipf,
	"fleet-unique":  runFleetUnique,
	"overlay-churn": runOverlayChurn,
	"build-scale":   runBuildScale,
	"engine-zipf":   runEngineZipf,
}

// replicates is each workload's default number of independent set-ups
// per run. A gossiping system's figures vary more between set-ups than
// within one, so those workloads take many short replicates; build-scale
// has no gossip and a set-up of seconds; engine-zipf's set-up takes tens
// of milliseconds, so many replicates steady its median cheaply.
var replicates = map[string]int{
	"fleet-zipf":    15,
	"fleet-unique":  15,
	"overlay-churn": 10,
	"build-scale":   10,
	"engine-zipf":   15,
}

// config is one run's settings. The size fields default to the
// benchmark's workload definitions; the self-tests shrink them.
type config struct {
	workload string
	seed     int64
	measure  time.Duration // the timed load window
	trace    bool
	setups   int    // replicates: each sets the system up and serves measure/setups of the load
	outDir   string // where the traced run writes its span file

	fleetHosts int // fleet-* host count
	churnPool  int // overlay-churn host pool
	churnLive  int // overlay-churn live hosts at start
	buildHosts int // build-scale host count
	idle       time.Duration
	warm       time.Duration // fleet-zipf cache warm-up before timing
	engine     time.Duration // traced engine-only phase
}

func defaultConfig() *config {
	return &config{
		outDir:     ".bench_build",
		fleetHosts: 64,
		churnPool:  128,
		churnLive:  96,
		buildHosts: 512,
		idle:       300 * time.Millisecond,
		warm:       500 * time.Millisecond,
		engine:     2 * time.Second,
	}
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	cfg := defaultConfig()
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&cfg.seed, "seed", 1, "input seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 10, "length of the timed load window in seconds")
	trace := fs.Int("trace", 0, "1: traced run printing per-layer metrics; 0: end-to-end metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runner, ok := workloads[cfg.workload]
	cfg.setups = replicates[cfg.workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds > 0, --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.measure = time.Duration(*seconds * float64(time.Second))
	cfg.trace = *trace == 1

	fp := fingerprint(cfg)
	fmt.Fprintf(stdout, "# fingerprint %s\n", mustJSON(fp))
	steal0, total0 := hostSteal()
	rep, err := runner(cfg)
	if steal1, total1 := hostSteal(); err == nil && total1 > total0 {
		// Time a hypervisor gives to other guests slows every figure of
		// the run; a result read against its neighbours needs this.
		rep.findings = append(rep.findings, fmt.Sprintf("host CPU steal during the run: %.1f%%",
			100*float64(steal1-steal0)/float64(total1-total0)))
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	if err := rep.print(stdout, cfg); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// metricDef names one reported metric. json marks the metrics listed in
// BENCHMARK.json and carried in the result object: every workload
// measures them, and the end-to-end ones are never zero. The others are
// printed in the text report only, because some workload cannot measure
// them (a layer it bypasses, or a value that is zero by design).
type metricDef struct {
	name, unit string
	json       bool
}

var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"qps", "1/s", true},
	{"central_p50_ms", "ms", true},
	{"central_p90_ms", "ms", true},
	{"decentral_p90_ms", "ms", true},
	{"wrong_pair_rate", "fraction", true},
	{"heap_mb", "MB", true},
	{"decentral_p50_ms", "ms", false},
	{"central_p99_ms", "ms", false},
	{"decentral_p99_ms", "ms", false},
	{"error_rate", "fraction", false},
	{"idle_cpu_cores", "cores", false},
	{"repair_p50_ms", "ms", false},
	{"reconverge_p50_ms", "ms", false},
	{"reconverge_p95_ms", "ms", false},
}

var perLayer = []metricDef{
	{"fleet.cache_hit_ratio", "ratio", true},
	{"fleet.proxy_calls_per_miss", "ratio", true},
	{"fleet.failovers", "count", true},
	{"fleet.shed", "count", true},
	{"fleet.router_self_ms_p50", "ms", false},
	{"fleet.proxy_ms_p50", "ms", false},
	{"fleet.proxy_ms_p99", "ms", false},
	{"serveapi.handler_ms_p50", "ms", false},
	{"serveapi.handler_ms_p99", "ms", false},
	{"serveapi.hop_ms_p50", "ms", false},
	{"cluster.find_us_p50", "us", true},
	{"cluster.find_us_p99", "us", true},
	{"cluster.index_cache_hit_ratio", "ratio", true},
	{"cluster.scan_rows_per_miss", "rows", true},
	{"cluster.index_build_ms", "ms", true},
	{"predtree.forest_build_ms", "ms", true},
	{"overlay.converge_ms", "ms", true},
	{"overlay.query_us_p50", "us", true},
	{"overlay.query_us_p99", "us", true},
	{"overlay.hops_mean", "hops", true},
	{"bwcluster.save_ms", "ms", false},
	{"bwcluster.load_ms", "ms", false},
	{"bwcluster.snapshot_kb", "KB", false},
	{"runtime.idle_cpu_cores", "cores", true},
	{"runtime.ticks_per_s", "1/s", true},
	{"runtime.repairs_per_s", "1/s", false},
	{"runtime.settle_ms", "ms", false},
	{"runtime.query_us_p50", "us", false},
	{"runtime.query_us_p99", "us", false},
	{"runtime.queue_us_p50", "us", false},
	{"runtime.queue_us_p99", "us", false},
	{"runtime.stale_answer_ratio", "ratio", false},
	{"runtime.evict_ms_p50", "ms", false},
	{"runtime.add_ms_p50", "ms", false},
	{"transport.delivered_per_s.nodeinfo", "1/s", true},
	{"transport.delivered_per_s.crt", "1/s", true},
	{"transport.delivered_per_s.query", "1/s", true},
	{"transport.delivered_per_s.result", "1/s", true},
	{"transport.delivered_per_s.snapshot", "1/s", true},
	{"transport.dropped.inbox_full", "ratio", true},
	{"transport.dropped.queue_full", "ratio", true},
	{"transport.dropped.superseded", "ratio", true},
	{"bwledger.idle_bytes_per_host_s", "B/s", true},
	{"trace.overhead_pct", "%", true},
}

// report is what a workload measured. Metrics a workload cannot measure
// are absent from the maps and have a reason in notes.
type report struct {
	attempted, failed int64
	wrong             int64    // answers the checker rejected (also in failed)
	problems          []string // failed or wrong operations, the first few
	findings          []string // checker observations that are not failures
	e2e, layer        map[string]float64
	notes             map[string]string // metric -> why it is not measured here
	ratios            []string          // "name = part / base" lines
	layerSelf         []string          // traced run: self time per layer
	spanFile          string
}

func newReport() *report {
	return &report{e2e: map[string]float64{}, layer: map[string]float64{}, notes: map[string]string{}}
}

// problem records why an operation failed, keeping the first few
// reasons of the run for the report.
func (r *report) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// ratio stores a per-layer ratio together with its base count.
func (r *report) ratio(name string, part, base float64) {
	v := 0.0
	if base > 0 {
		v = part / base
	}
	r.layer[name] = v
	r.ratios = append(r.ratios, fmt.Sprintf("%s = %.6g / %.6g", name, part, base))
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// print writes the text report, then the JSON result as the last line.
func (r *report) print(w io.Writer, cfg *config) error {
	if r.attempted > 0 {
		r.e2e["error_rate"] = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "# workload %s seed %d: attempted %d, failed %d (wrong answers %d)\n",
		cfg.workload, cfg.seed, r.attempted, r.failed, r.wrong)
	for _, p := range r.problems {
		fmt.Fprintf(w, "# problem: %s\n", p)
	}
	for _, f := range r.findings {
		fmt.Fprintf(w, "# finding: %s\n", f)
	}
	printDefs := func(kind string, defs []metricDef, vals map[string]float64) {
		for _, d := range defs {
			if v, ok := vals[d.name]; ok {
				fmt.Fprintf(w, "# %s %-36s %14.6g %s\n", kind, d.name, v, d.unit)
			} else {
				why := r.notes[d.name]
				if why == "" {
					why = "not measured on this workload"
				}
				fmt.Fprintf(w, "# %s %-36s %14s (%s)\n", kind, d.name, "n/a", why)
			}
		}
	}
	printDefs("e2e", endToEnd, r.e2e)
	if cfg.trace {
		printDefs("layer", perLayer, r.layer)
		for _, s := range r.ratios {
			fmt.Fprintf(w, "# ratio %s\n", s)
		}
		for _, s := range r.layerSelf {
			fmt.Fprintf(w, "# self %s\n", s)
		}
		if r.spanFile != "" {
			fmt.Fprintf(w, "# spans written to %s\n", r.spanFile)
		}
	}

	defs, vals := endToEnd, r.e2e
	if cfg.trace {
		defs, vals = perLayer, r.layer
	}
	out := resultLine{
		Correct:   r.wrong == 0 && r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   map[string]metricValue{},
	}
	for _, d := range defs {
		if !d.json {
			continue
		}
		v, ok := vals[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("%s: metric %s was not measured", cfg.workload, d.name)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("%s: no operation was attempted", cfg.workload)
	}
	_, err := fmt.Fprintln(w, mustJSON(out))
	return err
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs are marshalled
	}
	return string(b)
}
