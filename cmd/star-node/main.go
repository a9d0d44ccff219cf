// Command star-node runs ONE node of a STAR cluster as its own OS
// process, connected to its peers over TCP (internal/tcpnet) with the
// internal/wire binary encoding — the multi-process counterpart of the
// in-process cluster the library API builds.
//
// Every process is started with the same cluster flags plus its own
// -id. Process 0 additionally hosts the phase coordinator, drives the
// scripted run, and prints the cluster result as JSON; the other
// processes exit silently when the coordinator halts the run.
//
// A 2-node TPC-C cluster on loopback:
//
//	star-node -id 0 -nodes 2 -addrs 127.0.0.1:7101,127.0.0.1:7102 &
//	star-node -id 1 -nodes 2 -addrs 127.0.0.1:7101,127.0.0.1:7102
//
// The run is scripted (-txns generator steps per partition, then one
// deterministic single-master drain): its committed count and
// per-partition checksums are a pure function of the flags and -seed,
// so the same flags on the in-process simnet cluster produce the exact
// same JSON — the equivalence cmd/star-node's integration test pins.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	stdnet "net"
	"net/http"
	"net/http/pprof"
	"os"
	"strings"
	"time"

	"star/internal/core"
	"star/internal/faultnet"
	"star/internal/metrics"
	"star/internal/rt"
	"star/internal/tcpnet"
	"star/internal/transport"
	"star/internal/workload"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

func main() {
	var (
		id        = flag.Int("id", 0, "this process's node id (process 0 also hosts the coordinator)")
		nodes     = flag.Int("nodes", 2, "cluster size f+k")
		full      = flag.Int("full", 1, "full replicas f")
		workers   = flag.Int("workers", 2, "worker threads per node (partitions = nodes*workers)")
		addrs     = flag.String("addrs", "", "comma-separated host:port per process, in id order (required)")
		wl        = flag.String("workload", "tpcc", "workload: tpcc or ycsb")
		mix       = flag.String("mix", "paper", "tpcc mix: paper (NewOrder+Payment) or full (adds Delivery+Stock-Level, 45/43/4/4)")
		cross     = flag.Int("cross", -1, "cross-partition percentage (-1 = workload default)")
		snapReads = flag.Bool("snapshot-reads", false, "serve read-only transactions from the local fence snapshot")
		seed      = flag.Int64("seed", 1, "deterministic seed")
		txns      = flag.Int("txns", 200, "scripted generator steps per partition")
		serve     = flag.Bool("serve", false, "time-driven run instead of the scripted one: process the workload until killed or drained (failure-test mode)")
		iteration = flag.Duration("iteration", 10*time.Millisecond, "serve mode: phase-switch iteration time")
		members   = flag.String("members", "", "comma-separated boot member ids (empty = all slots; -nodes is capacity: a scripted run leaves dark slots out, a -serve cluster can admit them later)")
		join      = flag.Bool("join", false, "serve mode: ask the coordinator to admit this dark slot at an epoch fence, retrying until membership is installed")
		clientAt  = flag.String("client", "", "serve mode: host:port to serve star-client connections on (the client front door; off when empty)")
		clients   = flag.String("clients", "", "serve mode: comma-separated per-slot front-door addresses, in id order (advertised via the admin topology API; empty entries allowed)")
		clientWin = flag.Int("client-window", core.DefaultClientWindow, "serve mode: per-connection in-flight request bound")
		httpAt    = flag.String("http", "", "serve mode: host:port for the observability endpoint (Prometheus text at /metrics, pprof at /debug/pprof/); no listener when empty")
		traceAt   = flag.String("trace", "", "serve mode: write the coordinator's per-epoch timeline (JSONL, core.TraceEvent) to this file; only the coordinator-hosting process (id 0) emits")
		faults    = flag.String("faults", "", "JSON fault plan (internal/faultnet) injected into this process's outbound traffic; start every process with the same plan file")
		districts = flag.Int("districts", 2, "tpcc: districts per warehouse")
		customers = flag.Int("customers", 300, "tpcc: customers per district")
		items     = flag.Int("items", 2000, "tpcc: catalogue size")
		records   = flag.Int("records", 2000, "ycsb: records per partition")
	)
	flag.Parse()

	addrList := strings.Split(*addrs, ",")
	if *addrs == "" || len(addrList) != *nodes {
		fmt.Fprintf(os.Stderr, "star-node: -addrs must list exactly -nodes addresses (got %d, want %d)\n",
			len(addrList), *nodes)
		os.Exit(2)
	}
	if *id < 0 || *id >= *nodes {
		fmt.Fprintf(os.Stderr, "star-node: -id %d out of range [0,%d)\n", *id, *nodes)
		os.Exit(2)
	}
	var memberList []int
	if *members != "" {
		for _, s := range strings.Split(*members, ",") {
			var m int
			if _, err := fmt.Sscanf(strings.TrimSpace(s), "%d", &m); err != nil || m < 0 || m >= *nodes {
				fmt.Fprintf(os.Stderr, "star-node: -members: bad id %q\n", s)
				os.Exit(2)
			}
			memberList = append(memberList, m)
		}
	}
	boot := core.Config{Nodes: *nodes, FullReplicas: *full, WorkersPerNode: *workers, Members: memberList}
	if err := boot.Topology().Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "star-node:", err)
		os.Exit(2)
	}
	var clientAddrs []string
	if *clients != "" {
		clientAddrs = strings.Split(*clients, ",")
		if len(clientAddrs) != *nodes {
			fmt.Fprintf(os.Stderr, "star-node: -clients must list exactly -nodes addresses (got %d, want %d; empty entries allowed)\n",
				len(clientAddrs), *nodes)
			os.Exit(2)
		}
	}

	nparts := *nodes * *workers
	var w workload.Workload
	switch *wl {
	case "tpcc":
		cfg := tpcc.Config{
			Warehouses:           nparts,
			Districts:            *districts,
			CustomersPerDistrict: *customers,
			Items:                *items,
		}
		if *mix == "full" {
			cfg.SetFullMix()
		}
		if *cross >= 0 {
			cfg.SetCrossPct(*cross)
		}
		w = tpcc.New(cfg)
	case "ycsb":
		cfg := ycsb.Config{Partitions: nparts, RecordsPerPartition: *records}
		if *cross >= 0 {
			cfg.CrossPct = *cross
		}
		w = ycsb.New(cfg)
	default:
		fmt.Fprintf(os.Stderr, "star-node: unknown workload %q\n", *wl)
		os.Exit(2)
	}

	// Endpoint map: node i lives at addrList[i]; the coordinator
	// endpoint (id = nodes) shares process 0's listener.
	endpoints := append(append([]string(nil), addrList...), addrList[0])
	local := []int{*id}
	if *id == 0 {
		local = append(local, *nodes) // coordinator endpoint
	}

	r := rt.NewReal()
	codec := core.NewWireCodec(w)
	if *serve {
		// Time-driven mode: re-base request generation stamps at the
		// transport boundary. Each process's runtime clock has its own
		// origin, so a raw GenAt crossing the wire would skew every
		// deferred request's latency sample by the inter-process start
		// delta. Scripted runs must NOT do this — their GenAt carries
		// the deterministic total-order stamp the master sorts by.
		codec.SetClock(func() int64 { return int64(r.Now()) })
	}
	nw, err := tcpnet.New(r, tcpnet.Config{
		Endpoints: endpoints,
		Local:     local,
		Codec:     codec,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "star-node:", err)
		os.Exit(1)
	}
	defer nw.Close()

	// Optional deterministic fault injection: wrap the TCP transport with
	// the shared plan. Sends are faulted on the process hosting their
	// source endpoint, so identical plan files across processes yield one
	// coherent cluster-wide schedule. Plans for unattended runs must be
	// self-terminating (epoch-/count-bounded windows) — nothing calls
	// Heal() here.
	var tr transport.Transport = nw
	if *faults != "" {
		plan, err := faultnet.LoadPlan(*faults)
		if err != nil {
			fmt.Fprintln(os.Stderr, "star-node:", err)
			os.Exit(2)
		}
		tr = faultnet.Wrap(r, nw, plan)
	}

	cfg := core.Config{
		RT:               r,
		Nodes:            *nodes,
		FullReplicas:     *full,
		WorkersPerNode:   *workers,
		Workload:         w,
		Seed:             *seed,
		Transport:        tr,
		LocalNodes:       []int{*id},
		LocalCoordinator: *id == 0,
		SnapshotReads:    *snapReads,
		Members:          memberList,
		ClientAddrs:      clientAddrs,
	}

	if *serve {
		// Time-driven mode: run the node (and, on process 0, the
		// coordinator) until the process is killed — the target of the
		// multi-process kill/restart failure tests. Nothing is printed;
		// observers use star-admin against a front door (-client).
		cfg.Iteration = *iteration
		if *traceAt != "" && *id == 0 {
			// Only the coordinator-hosting process emits; gating the file on
			// id 0 lets every process share one flag line without the others
			// truncating the coordinator's output.
			tf, err := os.Create(*traceAt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "star-node: trace file:", err)
				os.Exit(1)
			}
			defer tf.Close()
			cfg.Trace = tf
		}
		eng := core.New(cfg)
		if *httpAt != "" {
			// Explicit mux, explicit listener: nothing is served unless the
			// flag is given, and the pprof handlers never land on the
			// DefaultServeMux.
			mux := http.NewServeMux()
			mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
				w.Header().Set("Content-Type", "text/plain; version=0.0.4")
				metrics.WritePrometheus(w, eng.StatsSnapshot())
			})
			mux.HandleFunc("/debug/pprof/", pprof.Index)
			mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
			mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
			mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
			mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
			hln, err := stdnet.Listen("tcp", *httpAt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "star-node: http listener:", err)
				os.Exit(1)
			}
			go http.Serve(hln, mux)
		}
		if *clientAt != "" {
			ln, err := stdnet.Listen("tcp", *clientAt)
			if err != nil {
				fmt.Fprintln(os.Stderr, "star-node: client listener:", err)
				os.Exit(1)
			}
			eng.ServeClients(*id, ln, codec, *clientWin)
		}
		if *join && !eng.Topology().IsMember(*id) {
			// Elastic scale-out: keep asking the coordinator to admit this
			// slot until the new topology version lands here. The
			// coordinator's snapshot catch-up and fence install do the rest.
			go func() {
				for !eng.Topology().IsMember(*id) {
					eng.RequestJoin(*id)
					time.Sleep(time.Second)
				}
			}()
		}
		// Run until killed — or until the cluster drains this node out of
		// the member set, which is the clean exit: give the front door a
		// beat to flush any in-flight admin response first.
		for drained := range eng.Drained() {
			if drained == *id {
				time.Sleep(time.Second)
				return
			}
		}
		return
	}

	run := core.StartScripted(cfg, core.Script{TxnsPerPartition: *txns})

	res := <-run.Done()
	r.Stop()
	if *id != 0 {
		return // node-only process: the coordinator prints the result
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if res.Err != "" {
		os.Exit(1)
	}
}
