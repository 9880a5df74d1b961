// Command perfbench is the repository's wall-clock benchmark. It runs one
// named workload through the layer packages' public functions, checks
// every output, and prints each metric by name, unit and clock:
//
//	wall   measured with the host's monotonic clock
//	model  the virtual-clock cost model the program returns
//	count  a count or ratio of counts
//
// With --trace 0 the run measures the end-to-end metrics with no tracing
// installed. With --trace 1 it first runs the same workload untraced for a
// quarter of the time, then traced for the rest, and prints the per-layer
// table and the tracing overhead (traced over untraced median call time).
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload cdp-serial --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A failed correctness check
// prints that line with correct=false, names the workload and the check on
// standard error, and exits 1. Set-up errors exit 2 without a result.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// setups is how many times a workload builds its system; setup_s is
	// the median. The last build carries the timed phase.
	setups int
	// small shrinks per-workload sizes for the smoke tests.
	small bool
}

// metric is one printed measurement.
type metric struct {
	Name  string
	Value float64
	Unit  string
	Clock string // wall, model or count
	N     int    // samples behind a statistic; 0 when not a sample statistic
	Src   string // per-layer rows: observed (span or counter at a seam), derived, or absent (not on this workload's path)
}

// check is one correctness assertion.
type check struct {
	name   string
	ok     bool
	detail string
}

// result is what a workload run reports.
type result struct {
	e2e       []metric
	layers    []metric
	checks    []check
	notes     []string // observations that are no check, printed as note lines
	attempted int64
	failed    int64
	tr        *tracer
}

func (r *result) check(name string, ok bool, format string, args ...any) {
	r.checks = append(r.checks, check{name: name, ok: ok, detail: fmt.Sprintf(format, args...)})
}

func (r *result) correct() bool {
	for _, c := range r.checks {
		if !c.ok {
			return false
		}
	}
	return true
}

// traceDir is where a traced run writes its spans, relative to the
// directory the benchmark runs in (the repository root).
const traceDir = ".bench_build/traces"

// workloads maps a name to its runner.
var workloads = map[string]func(config) (*result, error){
	"cdp-serial":         runCDPSerial,
	"cdp-batch-rollover": runCDPBatch,
	"dpdp-probes":        runDPDP,
	"fabric-k4":          runFabric,
}

// endToEnd and perLayer are the metric names the final JSON line carries
// (BENCHMARK.json lists the same). Every workload reports all of them.
var (
	endToEnd = []string{"setup_s", "sustained_ops_per_s", "lat_p95_us"}
	perLayer = []string{
		"crypto.sign_ns", "crypto.verify_ns", "core.encode_ns", "core.decode_ns",
		"controller.share", "switchos.share", "pisa.share", "statestore.share",
		"controller.kmp_share", "switchos.cache_hits", "controller.retransmits", "runtime.gc_cycles",
	}
)

func main() {
	os.Exit(mainErr())
}

func mainErr() int {
	var (
		cfg     config
		traceOn int
		commit  string
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "length of the measured phase, in seconds")
	flag.IntVar(&traceOn, "trace", 0, "1 runs traced and prints the per-layer table")
	flag.StringVar(&commit, "commit", "unknown", "commit label for the env line")
	flag.Parse()
	cfg.trace = traceOn == 1
	cfg.setups = 15
	run, ok := workloads[cfg.workload]
	if !ok || cfg.seconds <= 0 || (traceOn != 0 && traceOn != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", cfg.workload, cfg.seconds, traceOn)
		return 2
	}

	fmt.Printf("env num_cpu=%d gomaxprocs=%d go=%s os=%s arch=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, commit)
	fmt.Printf("run workload=%s seed=%d seconds=%g trace=%d\n", cfg.workload, cfg.seed, cfg.seconds, traceOn)
	res, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	for _, m := range res.e2e {
		printMetric("metric", m)
	}
	for _, m := range res.layers {
		printMetric("layer", m)
	}
	for _, n := range res.notes {
		fmt.Printf("note %s\n", n)
	}
	for _, c := range res.checks {
		state := "ok"
		if !c.ok {
			state = "FAIL"
			fmt.Fprintf(os.Stderr, "perfbench: check failed: workload=%s check=%s: %s\n", cfg.workload, c.name, c.detail)
		}
		fmt.Printf("check %s %s %s\n", c.name, state, c.detail)
	}
	if res.tr != nil {
		path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := res.tr.writeSpans(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 2
		}
		fmt.Printf("spans %d written to %s\n", len(res.tr.kept), path)
	}

	names := endToEnd
	from := res.e2e
	if cfg.trace {
		names, from = perLayer, res.layers
	}
	line, err := finalLine(res, names, from)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 2
	}
	fmt.Println(line)
	if !res.correct() {
		return 1
	}
	return 0
}

func workloadNames() []string {
	return []string{"cdp-serial", "cdp-batch-rollover", "dpdp-probes", "fabric-k4"}
}

// benchWorkloads are the workloads BENCHMARK.json lists. fabric-k4 runs
// with the same command but is left out: a few of its data packets go
// undelivered in every run, so its ops fail, and a known steering defect
// fails its forged_applied check on some seeds (NOTES.md).
func benchWorkloads() []string {
	return []string{"cdp-serial", "cdp-batch-rollover", "dpdp-probes"}
}

func printMetric(kind string, m metric) {
	fmt.Printf("%s %-28s %16.6f %-7s clock=%s", kind, m.Name, m.Value, m.Unit, m.Clock)
	if m.N > 0 {
		fmt.Printf(" n=%d", m.N)
	}
	if m.Src != "" {
		fmt.Printf(" source=%s", m.Src)
	}
	fmt.Println()
}

// finalLine renders the result object with the named metrics.
func finalLine(res *result, names []string, from []metric) (string, error) {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	byName := map[string]metric{}
	for _, m := range from {
		byName[m.Name] = m
	}
	out := map[string]val{}
	for _, n := range names {
		m, ok := byName[n]
		if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return "", fmt.Errorf("metric %s missing or not finite", n)
		}
		out[n] = val{Value: m.Value, Unit: m.Unit}
	}
	attempted := res.attempted
	if attempted < 1 {
		return "", fmt.Errorf("no operation attempted")
	}
	b, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{res.correct(), attempted, res.failed, out})
	return string(b), err
}

// phases splits a run: untraced for the whole budget, or an untraced
// reference quarter followed by the traced rest.
func phases(cfg config) (untraced, traced time.Duration) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	if !cfg.trace {
		return total, 0
	}
	return total / 4, total - total/4
}
