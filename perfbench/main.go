// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall-clock budget, checks every result it
// produces against a reference it computes itself, and prints one JSON
// object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (untraced run); with
// -trace 1 they are the per-layer ones, taken from a CPU-profiled untraced
// pass followed by a traced pass. The workloads, metrics and the layer
// predictions are documented in README.md next to this file.
//
// It drives the system only through public calls (env.NewWorld, World.Run,
// coll.New, core.New, gxhc.New and its collectives) and reads only public
// counters (mem.System.Stats, sim.Engine.Stats, obs.Registry.Snapshot).
//
// Usage (from the repository root, which run.py does for you):
//
//	python3 perfbench/run.py --workload repro-bulk --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
)

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// tally counts attempted and failed collective operations. An operation
// fails when any rank's output bytes differ from the reference, when the
// run that holds it returns an error (deadlock or panic), or when a
// simulated cell's latencies or counters do not repeat exactly.
type tally struct{ attempted, failed int64 }

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
}

// workloads maps each workload name to its runner. A runner returns the
// metrics for the requested mode; the per-layer set is the same for every
// workload (layers a workload does not exercise read 0).
var workloads = map[string]func(cfg runConfig) (map[string]metric, tally, error){
	"repro-bulk":  runSim,
	"repro-small": runSim,
	"gxhc-mix":    runGx,
}

type runConfig struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
}

func main() {
	var cfg runConfig
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "repro-bulk | repro-small | gxhc-mix")
	flag.Uint64Var(&cfg.seed, "seed", 1, "input seed: picks buffer contents, roots and op order")
	flag.Float64Var(&cfg.seconds, "seconds", 20, "measured wall-clock budget")
	flag.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from profiled and traced passes")
	flag.Parse()
	cfg.trace = trace == 1
	run, ok := workloads[cfg.workload]
	if !ok || (trace != 0 && trace != 1) || cfg.seconds <= 0 || flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d)\n", cfg.workload, trace)
		flag.Usage()
		os.Exit(2)
	}
	ms, t, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if !cfg.trace {
		ms["max_rss_mb"] = metric{maxRSSMiB(), "MiB"}
	}
	if err := checkFinite(ms); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	host, _ := json.Marshal(hostFacts())
	fmt.Printf("host: %s\n", host)
	out, err := json.Marshal(result{
		Correct:   t.failed == 0 && t.attempted > 0,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   ms,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

func checkFinite(ms map[string]metric) error {
	var bad []string
	for k, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			bad = append(bad, k)
		}
	}
	if len(bad) > 0 {
		sort.Strings(bad)
		return fmt.Errorf("non-finite metrics %v", bad)
	}
	return nil
}

// maxRSSMiB is the process's peak resident set size.
func maxRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// cpuTimeNS is the process's user plus system CPU time. Time the hypervisor
// stole from the VM is not in it.
func cpuTimeNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// hostFacts records what every result was measured on.
func hostFacts() map[string]any {
	cpu, caches := cpuInfo()
	return map[string]any{
		"nproc":  runtime.NumCPU(),
		"go":     runtime.Version(),
		"goos":   runtime.GOOS + "/" + runtime.GOARCH,
		"cpu":    cpu,
		"caches": caches,
	}
}

// cpuInfo reads the CPU model and cache sizes from procfs/sysfs; missing
// files (non-Linux hosts, sandboxes) leave the facts empty.
func cpuInfo() (string, map[string]string) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		model = fieldAfter(string(b), "model name")
	}
	caches := map[string]string{}
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		level, err1 := os.ReadFile(dir + "level")
		typ, err2 := os.ReadFile(dir + "type")
		size, err3 := os.ReadFile(dir + "size")
		if err := errors.Join(err1, err2, err3); err != nil {
			break
		}
		caches["L"+trim(level)+" "+trim(typ)] = trim(size)
	}
	return model, caches
}

// zeroLayerMetrics is the per-layer metric set every workload reports; a
// layer the workload does not run reads 0.
func zeroLayerMetrics() map[string]metric {
	ms := map[string]metric{}
	for _, l := range selfFracLayers {
		ms["self_frac."+l] = metric{0, "ratio"}
	}
	for _, name := range []string{"sim.events_run", "sim.max_heap_len", "mem.flows_started",
		"mem.max_concurrent_flows", "mem.solver_fastpath", "mem.solver_fallbacks",
		"mem.line_fetches", "mem.max_line_waiters"} {
		ms[name] = metric{0, "count"}
	}
	ms["sim.host_ns_per_event"] = metric{0, "ns"}
	ms["sim.xhc_lat_us"] = metric{0, "sim_us"}
	ms["mem.line_hit_ratio"] = metric{0, "ratio"}
	ms["mem.line_queue_wait_us"] = metric{0, "sim_us"}
	ms["mem.bytes_moved"] = metric{0, "B"}
	ms["regcache.hit_ratio"] = metric{0, "ratio"}
	for _, e := range critEdges {
		ms["crit."+e+".blame_us"] = metric{0, "us"}
	}
	ms["crit.coverage"] = metric{0, "ratio"}
	for _, name := range []string{"gxhc.allreduce_roofline_frac", "gxhc.bcast_roofline_frac",
		"gxhc.vs_naive"} {
		ms[name] = metric{0, "ratio"}
	}
	ms["gxhc.allocs_per_op"] = metric{0, "count"}
	ms["gxhc.gc_cycles"] = metric{0, "per_1k_ops"}
	ms["gxhc.allreduce_gbps"] = metric{0, "GB/s"}
	for _, op := range opNames {
		ms["gxhc."+op+".p50_us"] = metric{0, "us"}
		ms["gxhc."+op+".p99_us"] = metric{0, "us"}
	}
	ms["host.copy_gbps"] = metric{0, "GB/s"}
	ms["host.add_gbps"] = metric{0, "GB/s"}
	ms["obs.overhead_frac"] = metric{0, "ratio"}
	return ms
}
