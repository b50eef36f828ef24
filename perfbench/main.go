// Command perfbench is the RedPlane benchmark: one seeded workload per
// run, its outputs checked, and every metric printed by name and unit.
//
// It measures the system from outside. The real-path workloads spawn the
// real redplane-store processes (and redplane-ctl, which links the chain
// and serves the per-store /metrics counters) and drive them from a
// windowed closed-loop load generator in this package. The simulator
// workload builds redplane.Deployment values in-process. Per-layer
// numbers come from timing calls into each layer's public functions,
// replayed on the inputs the workload generated.
//
//	go build -o perfbench . && ./perfbench -bin <dir with redplane-store, redplane-ctl> \
//	    -workload perpkt-volatile -seed 1 -seconds 10 -trace 0
//
// run.py, next to this file, builds everything from source and runs it;
// BENCHMARK.json at the repository root lists the workloads and metrics.
// The last line of standard output is the JSON result; progress and a
// human-readable table go to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them, each measured on that workload's unit of work
// (see BENCHMARK.json and README.md for the per-workload meaning).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"goodput_wps", "1/s"},
	{"write_p50_us", "us"},
	{"write_p99_us", "us"},
	{"store_rss_mb", "MB"},
}

// perLayer are the traced run's metrics. A metric of a layer a workload
// bypasses reads 0 on it.
var perLayer = []metricDef{
	// Workload-specific end-to-end figures; they cannot be gated on every
	// workload, so the traced run reports them.
	{"write_samples", "count"},
	{"failed_frac", "ratio"},
	{"flow_open_per_s", "1/s"},
	{"flow_open_p50_us", "us"},
	{"flow_open_p99_us", "us"},
	{"sim_pkts_per_wall_s", "1/s"},
	{"sim_goodput_kpps", "kpps"},
	{"sim_pkt_p50_us", "us"},
	{"sim_pkt_p99_us", "us"},
	{"sim_failover_stall_ms", "ms"},
	// Real-path store, from ctl /metrics deltas and /proc.
	{"store.udp.rx_dgrams_per_batch", "count"},
	{"store.udp.tx_dgrams_per_batch", "count"},
	{"store.cpu_sys_us_per_write", "us"},
	{"store.cpu_user_us_per_write", "us"},
	{"store.udp.sheds", "count"},
	{"store.udp.queue_depth_high", "count"},
	{"store.udp.shard_spread", "ratio"},
	// Replayed layer calls.
	{"wire.decode_ns_per_dgram", "ns"},
	{"wire.encode_ns_per_dgram", "ns"},
	{"wire.allocs_per_dgram", "count"},
	{"ring.handoff_ns", "ns"},
	{"ring.full_frac", "ratio"},
	{"store.shard.apply_ns_per_msg", "ns"},
	{"store.shard.allocs_per_msg", "count"},
	{"store.shard.grant_ns_per_flow", "ns"},
	{"store.shard.heap_bytes_per_flow", "B"},
	{"durable.records_per_fsync", "count"},
	{"durable.wal_bytes_per_write", "B"},
	{"durable.append_ns_per_record", "ns"},
	{"durable.sync_p50_us", "us"},
	{"durable.sync_p99_us", "us"},
	{"chain.relays_per_write", "count"},
	{"ctl.link_ms", "ms"},
	{"ctl.view_changes", "count"},
	{"loadgen.cpu_us_per_write", "us"},
	{"loadgen.retrans_per_write", "count"},
	// Simulator.
	{"netsim.events_per_pkt", "count"},
	{"netsim.ns_per_event", "ns"},
	{"sim.allocs_per_pkt", "count"},
	{"core.repl_msgs_per_pkt", "count"},
	{"core.retrans_per_pkt", "count"},
	{"core.buf_bytes_high", "B"},
	{"store.sim_batch_size", "count"},
	{"member.view_changes", "count"},
	{"member.splice_ms", "ms"},
	// The ladder and the cost of tracing.
	{"ladder.unattributed_us", "us"},
	{"trace.spans", "count"},
	{"trace.overhead_p50_pct", "%"},
	{"trace.overhead_goodput_pct", "%"},
}

// nameRE is the metric-name grammar the result must honour.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// options are one run's command-line settings.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // short phases, one set-up: the package tests use it
	bin      string // directory holding redplane-store and redplane-ctl
	work     string // scratch directory for WALs, temp files and traces
}

// outcome is what a workload measured: every metric it computed plus the
// operation tallies and any failed output check.
type outcome struct {
	values    map[string]float64
	attempted int64
	failed    int64
	checks    []string // failed output checks, one line each
}

func newOutcome() *outcome { return &outcome{values: map[string]float64{}} }

func (o *outcome) set(name string, v float64) { o.values[name] = v }

func (o *outcome) fail(format string, args ...any) {
	o.checks = append(o.checks, fmt.Sprintf(format, args...))
	o.failed++
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// workloads maps each workload name to its driver. BENCHMARK.json lists
// all but flow-churn, which runs by name only: its store's table grows
// all through the run, the garbage collector's cycles over that table
// fall into a run in uneven numbers, and its open rate swung by up to a
// third between runs of one set, more than any bound allows.
var workloads = map[string]func(*options) (*outcome, error){
	"perpkt-volatile":  func(o *options) (*outcome, error) { return runReal(o, perpktVolatile) },
	"chain-durable":    func(o *options) (*outcome, error) { return runReal(o, chainDurable) },
	"flow-churn":       func(o *options) (*outcome, error) { return runReal(o, flowChurn) },
	"sim-nat-failover": runSim,
}

func main() {
	var o options
	var traceFlag int
	flag.StringVar(&o.workload, "workload", "", "workload to run")
	flag.Int64Var(&o.seed, "seed", 1, "seed for every generated input")
	flag.Float64Var(&o.seconds, "seconds", 10, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.BoolVar(&o.smoke, "smoke", false, "short phases for the package's own tests")
	flag.StringVar(&o.bin, "bin", ".bench_build/bin", "directory with redplane-store and redplane-ctl")
	flag.StringVar(&o.work, "work", ".bench_build/work", "scratch directory")
	flag.Parse()
	o.trace = traceFlag == 1

	res, err := run(&o)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// run executes one workload and assembles its result.
func run(o *options) (*result, error) {
	drive, ok := workloads[o.workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	work, err := filepath.Abs(filepath.Join(o.work, fmt.Sprintf("%s-%d", o.workload, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	oc := *o
	oc.work = work
	out, err := drive(&oc)
	if err != nil {
		return nil, err
	}
	for _, c := range out.checks {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", c)
	}
	if out.attempted < 1 {
		return nil, fmt.Errorf("%s attempted no operations", o.workload)
	}
	out.set("failed_frac", float64(out.failed)/float64(out.attempted))
	defs := endToEnd
	if o.trace {
		defs = perLayer
	}
	res := &result{
		Correct:   len(out.checks) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.values[d.name]
		if !ok {
			return nil, fmt.Errorf("%s did not measure %s", o.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("%s measured %s = %v", o.workload, d.name, v)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	printTable(o.workload, out)
	return res, nil
}

// printTable writes every measured value to standard error, sorted.
func printTable(workload string, out *outcome) {
	names := make([]string, 0, len(out.values))
	for n := range out.values {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "%s: attempted %d, failed %d\n", workload, out.attempted, out.failed)
	for _, n := range names {
		fmt.Fprintf(os.Stderr, "  %-34s %.6g\n", n, out.values[n])
	}
}

// percentile returns the q-quantile (0..1) of sorted by the
// nearest-rank rule; 0 for an empty slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts xs in place and returns its median.
func median(xs []float64) float64 {
	sort.Float64s(xs)
	return percentile(xs, 0.5)
}

// quartiles formats the quartiles of xs as "q1/median/q3".
func quartiles(xs []float64) string {
	ys := append([]float64(nil), xs...)
	sort.Float64s(ys)
	return fmt.Sprintf("%.6g/%.6g/%.6g", percentile(ys, 0.25), percentile(ys, 0.5), percentile(ys, 0.75))
}
