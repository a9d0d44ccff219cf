package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"os"
	"sync"
	"time"

	"star/internal/client"
	"star/internal/core"
	"star/internal/metrics"
	"star/internal/rt"
	"star/internal/tcpnet"
	"star/internal/transport"
	"star/internal/workload"
)

// Cluster shape, fixed for every workload (see README: 2×2 and 4×2
// oversubscribe a 2-core box and spread ±20 %).
const (
	numNodes       = 2
	workersPerNode = 1
	numPartitions  = numNodes * workersPerNode
	numSessions    = 2
	iteration      = 10 * time.Millisecond
	// doorNode hosts the client front door: the partial replica, so every
	// client write crosses a socket to the master and back.
	doorNode = 1
)

// lockedBuffer is the in-memory sink for Config.Trace: the coordinator
// goroutine writes, the harness reads after the runtime stopped.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) Bytes() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]byte(nil), b.buf.Bytes()...)
}

// cluster is the system under test: two engines in this process, each
// hosting one node over its own tcpnet.Network on loopback, so every
// inter-node message crosses internal/wire and a real socket.
type cluster struct {
	r        *rt.Real
	nets     [numNodes]*tcpnet.Network
	eng      [numNodes]*core.Engine
	door     net.Listener
	sessions []*client.Client
	logDirs  [numNodes]string
	trace    *lockedBuffer // nil on untraced runs
	// origin is the wall-clock instant of r's time zero (TraceEvent.NowUS
	// counts from it).
	origin  time.Time
	stopped bool
	// t0 is when set-up began, before the first listener; ready is the
	// wall time from there to the first completed fence.
	t0    time.Time
	ready time.Duration
}

// startCluster builds, loads and starts the cluster and returns once the
// coordinator has committed its first epoch. newWorkload must return a
// fresh, identically configured instance per call (one per node plus one
// for the client-side codec), as separate processes would build them.
func startCluster(newWorkload func() workload.Workload, seed int64, scratch string, traced bool, sp *spans) (c *cluster, err error) {
	t0 := time.Now()
	setupSpan := sp.begin("setup", 0)
	defer func() { sp.end(setupSpan) }()
	c = &cluster{t0: t0, origin: time.Now(), r: rt.NewReal()}
	defer func() {
		if err != nil {
			c.close()
			c = nil
		}
	}()
	if traced {
		c.trace = &lockedBuffer{}
	}

	s := sp.begin("setup/net", setupSpan)
	var lns [numNodes]net.Listener
	var addrs [numNodes]string
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			for _, ln := range lns[:i] {
				ln.Close()
			}
			return c, fmt.Errorf("listen: %w", err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	// Endpoints 0 and 1 are the nodes; endpoint 2 is the coordinator,
	// hosted with node 0.
	endpoints := []string{addrs[0], addrs[1], addrs[0]}
	local := [numNodes][]int{{0, numNodes}, {1}}
	for i := range c.nets {
		c.nets[i], err = tcpnet.New(c.r, tcpnet.Config{
			Endpoints: endpoints,
			Local:     local[i],
			Codec:     core.NewWireCodec(newWorkload()),
			Listener:  lns[i],
		})
		if err != nil {
			for _, ln := range lns[i:] {
				ln.Close()
			}
			return c, err
		}
	}
	sp.end(s)

	// Node 1 first: the coordinator (with node 0) starts phases as soon
	// as it exists and would evict a peer that is still loading.
	for _, id := range []int{1, 0} {
		s = sp.begin(fmt.Sprintf("setup/node%d_build_load_start", id), setupSpan)
		if c.logDirs[id], err = os.MkdirTemp(scratch, fmt.Sprintf("wal-node%d-", id)); err != nil {
			return c, err
		}
		cfg := core.Config{
			RT:               c.r,
			Nodes:            numNodes,
			FullReplicas:     1,
			WorkersPerNode:   workersPerNode,
			Workload:         newWorkload(),
			Transport:        c.nets[id],
			LocalNodes:       []int{id},
			LocalCoordinator: id == 0,
			Iteration:        iteration,
			SnapshotReads:    true,
			LogDir:           c.logDirs[id],
			Seed:             seed,
		}
		if id == 0 && c.trace != nil {
			cfg.Trace = c.trace
		}
		c.eng[id] = core.New(cfg)
		sp.end(s)
	}

	s = sp.begin("setup/front_door", setupSpan)
	if c.door, err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
		return c, fmt.Errorf("front door: %w", err)
	}
	c.eng[doorNode].ServeClients(doorNode, c.door, core.NewWireCodec(newWorkload()), 0)
	for i := 0; i < numSessions; i++ {
		cl, derr := client.Dial(client.Config{
			Addr:       c.door.Addr().String(),
			Codec:      core.NewWireCodec(newWorkload()),
			Window:     1,
			ReqTimeout: clientTimeout,
			// The engines share c.r, so stamping requests with its clock
			// keeps the server-side latency accounting in one domain.
			Now: func() int64 { return int64(c.r.Now()) },
		})
		if derr != nil {
			return c, derr
		}
		c.sessions = append(c.sessions, cl)
	}
	sp.end(s)

	s = sp.begin("setup/first_fence", setupSpan)
	deadline := time.Now().Add(10 * time.Second)
	for c.eng[0].StatsSnapshot().Counters["epochs"] < 1 {
		if time.Now().After(deadline) {
			return c, fmt.Errorf("no fence completed within 10s of start")
		}
		time.Sleep(200 * time.Microsecond)
	}
	sp.end(s)
	c.ready = time.Since(t0)
	return c, nil
}

// snapshot merges both engines' registries. Coordinator-fed metrics are
// zero on node 1, so the merge double counts nothing; the per-node
// snapshots are returned too for the metrics that are node-specific.
func (c *cluster) snapshot() (merged metrics.Snapshot, per [numNodes]metrics.Snapshot) {
	for i, e := range c.eng {
		per[i] = e.StatsSnapshot()
		merged.Merge(per[i])
	}
	return merged, per
}

// netMessages is the tcpnet message count across classes and nodes.
func (c *cluster) netMessages() int64 {
	var n int64
	for _, e := range c.eng {
		for cl := transport.Class(0); cl < transport.NumClasses; cl++ {
			n += e.Net().Messages(cl)
		}
	}
	return n
}

// errUnstable marks a run in which the cluster evicted a node or halted.
// Nothing in the benchmark fails nodes, so this is the failure detector
// firing on a node that was starved of CPU for its 250 ms grace.
var errUnstable = errors.New("cluster lost a node during the run")

func (c *cluster) unstable() error {
	for i, e := range c.eng {
		if h, why := e.Halted(); h {
			return fmt.Errorf("%w: engine %d halted: %s", errUnstable, i, why)
		}
	}
	if f := c.eng[0].FailedNodes(); len(f) > 0 {
		return fmt.Errorf("%w: coordinator evicted %v", errUnstable, f)
	}
	return nil
}

// stop ends every engine goroutine and closes the recovery logs, leaving
// the log files and databases in place for verification.
func (c *cluster) stop() error {
	if c.stopped {
		return nil
	}
	c.stopped = true
	for _, s := range c.sessions {
		s.Close()
	}
	if c.door != nil {
		c.door.Close()
	}
	c.r.Stop()
	var first error
	for _, n := range c.nets {
		if n != nil {
			n.Close()
		}
	}
	for _, e := range c.eng {
		if e == nil {
			continue
		}
		if err := e.CloseLogs(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// close stops the cluster if needed and removes its WAL directories.
func (c *cluster) close() {
	c.stop()
	for _, d := range c.logDirs {
		if d != "" {
			os.RemoveAll(d)
		}
	}
}
