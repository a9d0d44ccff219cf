package main

import (
	"errors"
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"syscall"
	"time"
)

const (
	// warmup precedes every measured window: the phase tuner settles, the
	// replication thresholds adapt and the heap reaches its working size.
	warmup = 2 * time.Second
	// lifetimes is how many independent clusters an untraced run sets up,
	// warms and measures, each for a third of --seconds; their slices and
	// samples are taken together. One cluster's master queue is a random
	// walk and one set-up varies with page faults; three lifetimes
	// together move a good deal less from run to run than any one of them.
	lifetimes = 3
	// unstableRetries bounds how often a cluster lifetime is repeated
	// after the coordinator evicted a node that was only starved of CPU.
	unstableRetries = 2
)

type benchOpts struct {
	sz      sizes
	seed    int64
	window  time.Duration
	traced  bool
	scratch string
	warmup  time.Duration // 0 = the default
}

// cluster returns the options of one cluster run inside this benchmark
// run.
func (o benchOpts) cluster(seed int64, window time.Duration) runOpts {
	return runOpts{sz: o.sz, seed: seed, warmup: o.warmup, window: window, scratch: o.scratch}
}

// result is the contract's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	header map[string]any
	detail map[string]any
	result result
	// all is every metric computed, with sample counts (tests read it).
	all metricSet
}

func header(s spec, o benchOpts) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				commit = kv.Value
			}
		}
	}
	var un syscall.Utsname
	kernel := "unknown"
	if syscall.Uname(&un) == nil {
		b := make([]byte, 0, len(un.Release))
		for _, c := range un.Release {
			if c == 0 {
				break
			}
			b = append(b, byte(c))
		}
		kernel = string(b)
	}
	return map[string]any{
		"workload":       s.name,
		"seed":           o.seed,
		"seconds":        o.window.Seconds(),
		"traced":         o.traced,
		"nproc":          runtime.NumCPU(),
		"gomaxprocs":     runtime.GOMAXPROCS(0),
		"go":             runtime.Version(),
		"git_commit":     commit,
		"kernel":         kernel,
		"cluster":        fmt.Sprintf("%d nodes x %d worker, %d partitions, node 0 full replica + coordinator, node 1 partial replica + front door, %d sessions", numNodes, workersPerNode, numPartitions, numSessions),
		"transport":      "tcpnet on 127.0.0.1, one Network per node",
		"iteration_ms":   iteration.Seconds() * 1e3,
		"flush_policy":   "WAL fence flush is wal.Logger.Flush(false): write(2), no fsync; replication FlushAdaptive",
		"snapshot_reads": true,
		"load":           "closed loop: one embedded generator per worker, one request outstanding per front-door session",
	}
}

// runBenchmark runs one workload: the untraced run reports the
// end-to-end metrics, the traced run the per-layer ones.
func runBenchmark(s spec, o benchOpts) (*output, error) {
	if o.warmup == 0 {
		o.warmup = warmup
	}
	out := &output{header: header(s, o), detail: map[string]any{}, all: metricSet{}}
	var runs []*clusterRun
	var err error
	if o.traced {
		runs, err = tracedRun(s, o, out)
	} else {
		runs, err = untracedRun(s, o, out)
	}
	if err != nil {
		return nil, err
	}
	want := endToEndNames
	if o.traced {
		want = perLayerNames
	}
	if len(out.all) != len(want) {
		return nil, fmt.Errorf("harness bug: %d metrics computed, %d declared", len(out.all), len(want))
	}
	for _, name := range want {
		if m, ok := out.all[name]; !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("harness bug: metric %s missing or not finite", name)
		}
	}
	var attempted, failed, aborted int
	for _, r := range runs {
		a, f, ab, firstErr := clientTotals(r.sessions)
		attempted, failed, aborted = attempted+a, failed+f, aborted+ab
		if firstErr != nil {
			out.detail["first_client_error"] = firstErr.Error()
		}
	}
	if attempted == 0 {
		return nil, fmt.Errorf("no front-door request was issued inside the window")
	}
	out.detail["failed_pct"] = 100 * float64(failed) / float64(attempted)
	out.detail["application_aborts"] = aborted
	samples := map[string]int64{}
	out.result = result{Correct: true, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for name, m := range out.all {
		out.result.Metrics[name] = metricValue{m.Value, m.Unit}
		if m.Samples > 0 {
			samples[name] = m.Samples
		}
	}
	out.detail["samples"] = samples
	return out, nil
}

// stableRun is runCluster, repeated when the run was spoilt by a false
// failure detection: a node that gets no CPU for 250 ms is evicted, which
// on a two-core box is the host's doing, not the code's.
func stableRun(s spec, o runOpts, out *output) (*clusterRun, error) {
	for try := 0; ; try++ {
		run, err := runCluster(s, o)
		if err == nil || !errors.Is(err, errUnstable) || try == unstableRetries {
			return run, err
		}
		out.detail["unstable_retries"] = try + 1
		runtime.GC()
	}
}

// untracedRun measures the end-to-end metrics over `lifetimes` clusters:
// setup_s is the median set-up (everything before the measured window:
// build, load, start, first fence, warm-up), commit_p50_ms the better
// quartile of the windows' slices, the byte counts totals over totals.
func untracedRun(s spec, o benchOpts, out *output) ([]*clusterRun, error) {
	var runs []*clusterRun
	for i := 0; i < lifetimes; i++ {
		run, err := stableRun(s, o.cluster(o.seed+int64(i)*1_000_000_007, o.window/lifetimes), out)
		if err != nil {
			return nil, err
		}
		runs = append(runs, run)
		runtime.GC() // the next lifetime starts from a collected heap
	}
	var setups, readies []float64
	var slices [][]sliceStats
	for _, r := range runs {
		setups = append(setups, r.setup.Seconds())
		readies = append(readies, r.ready.Seconds())
		slices = append(slices, slicesOf(r))
	}
	out.detail["setup_s_each"] = append([]float64(nil), setups...)
	out.detail["ready_s_each"] = readies
	out.detail["slices"] = slices
	sort.Float64s(setups)
	out.all.putN("setup_s", quantile(setups, 0.50), "s", int64(len(setups)))
	w := windowsOf(runs)
	out.all.putN("commit_p50_ms", w.CommitP50Ms, "ms", w.Slices)
	out.all.put("wal_bytes_per_txn", w.WALBytesPerTxn, "B")
	out.all.put("net_bytes_per_txn", w.NetBytesPerTxn, "B")
	out.detail["windows"] = w
	return runs, nil
}

// tracedRun supplies the per-layer numbers. The window is split between
// an untraced cluster (the base of harness.trace_overhead_pct), the
// traced cluster, and the layer drill.
func tracedRun(s spec, o benchOpts, out *output) ([]*clusterRun, error) {
	part := o.window * 3 / 10
	sp := newSpans()
	base, err := stableRun(s, o.cluster(o.seed, part), out)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	tracedOpts := o.cluster(o.seed, part)
	tracedOpts.traced, tracedOpts.sp = true, sp
	run, err := stableRun(s, tracedOpts, out)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	clusterLayers(run, out.all, sp)
	untraced, traced := windowsOf([]*clusterRun{base}).TxnPerSMean, windowsOf([]*clusterRun{run}).TxnPerSMean
	out.all.put("harness.trace_overhead_pct", 100*(1-ratio(traced, untraced)), "%")
	out.detail["untraced_txn_per_s_mean"] = untraced
	out.detail["traced_txn_per_s_mean"] = traced

	if err := drill(s, o, o.window-2*part, sp, out.all); err != nil {
		return nil, err
	}
	path := filepath.Join(o.scratch, fmt.Sprintf("spans-%s-seed%d.json", s.name, o.seed))
	if err := sp.write(path); err != nil {
		return nil, err
	}
	out.detail["span_file"] = path
	return []*clusterRun{run}, nil
}
