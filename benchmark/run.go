package main

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"star/internal/client"
	"star/internal/metrics"
	"star/internal/txn"
	"star/internal/wal"
	"star/internal/workload"
)

const (
	// clientTimeout is how long a front-door request may stay unanswered
	// (also after the window closes) before it counts as failed.
	clientTimeout = 5 * time.Second
	// clientRetries bounds busy-shed retries per request (DoRetry).
	clientRetries = 8
	// sliceLen is the length of the slices a measured window is cut into
	// (metrics.go says what is taken over them).
	sliceLen = time.Second
	// settleEpochs is how many fences must complete after Freeze before
	// replicas are compared: every fence drains the replication streams,
	// so the first one after the last commit already suffices.
	settleEpochs = 6
)

// procSample is the process-wide resource reading taken at both ends of
// the measured window.
type procSample struct {
	at       time.Time
	cpu      time.Duration // user+system, getrusage
	mallocs  uint64
	allocB   uint64
	gcPause  time.Duration
	heapLive uint64
}

func sampleProc() procSample {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{
		at:       time.Now(),
		cpu:      time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		mallocs:  ms.Mallocs,
		allocB:   ms.TotalAlloc,
		gcPause:  time.Duration(ms.PauseTotalNs),
		heapLive: ms.HeapAlloc,
	}
}

// edge is everything read at one end of the measured window.
type edge struct {
	proc    procSample
	merged  metrics.Snapshot
	perNode [numNodes]metrics.Snapshot
	netMsgs int64
}

func (c *cluster) edge() edge {
	e := edge{proc: sampleProc(), netMsgs: c.netMessages()}
	e.merged, e.perNode = c.snapshot()
	return e
}

// sessionStats is one front-door session's tally over the window.
type sessionStats struct {
	writeLat, readLat []time.Duration // answered OK inside the window
	attempted, failed int
	aborted           int // application aborts: answered, not failed
	firstErr          error
}

// clusterRun is the raw outcome of one cluster run; metrics.go turns it
// into named metrics.
type clusterRun struct {
	ready       time.Duration // first listener to first completed fence
	setup       time.Duration // first listener to the start of the measured window: ready + warm-up
	start, end  edge
	sessions    []sessionStats
	trace       []byte       // coordinator JSONL (traced runs)
	lagMax      int64        // largest repl_lag gauge sampled in the window
	bounds      []sliceBound // the window's start and the end of each slice: slice i lies between bounds[i] and bounds[i+1]
	walBytes    int64        // node 1's log file bytes (traced runs)
	recoverTime time.Duration
	// runtimeOrigin is the engines' clock zero; measureSpan is the
	// run/measure span the epoch spans hang under.
	runtimeOrigin time.Time
	measureSpan   int
}

// sliceBound is what is read at a slice boundary inside the window.
type sliceBound struct {
	at        time.Time
	committed int64
	latency   metrics.HistSnapshot // the engines' commit-latency histograms, merged
}

func boundOf(at time.Time, snap metrics.Snapshot) sliceBound {
	return sliceBound{at, snap.Counters["committed"], snap.Hists["latency"]}
}

// runOpts parameterises one cluster run.
type runOpts struct {
	sz      sizes
	seed    int64
	warmup  time.Duration
	window  time.Duration
	scratch string
	traced  bool
	sp      *spans
	// tamper, when set, runs after the replicas settled and before they
	// are compared (the package test corrupts a row with it).
	tamper func(c *cluster)
}

// runCluster sets the cluster up, drives the front-door sessions through
// warm-up and the measured window, and passes the correctness gate. Any
// gate violation is an error and no result is returned.
func runCluster(s spec, o runOpts) (res *clusterRun, err error) {
	newW := func() workload.Workload { return s.newWorkload(o.sz) }
	c, err := startCluster(newW, o.seed, o.scratch, o.traced, o.sp)
	if err != nil {
		return nil, err
	}
	defer c.close()
	res = &clusterRun{ready: c.ready, runtimeOrigin: c.origin}

	runSpan := o.sp.begin("run", 0)
	var measuring, stopping atomic.Bool
	stats := make([]sessionStats, len(c.sessions))
	var wg sync.WaitGroup
	for i, cl := range c.sessions {
		wg.Add(1)
		go func(i int, cl *client.Client, src session) {
			defer wg.Done()
			driveSession(cl, src, &stats[i], &measuring, &stopping, o.sp, runSpan, i)
		}(i, cl, s.newSession(newW(), i, o.seed))
	}

	ws := o.sp.begin("run/warmup", runSpan)
	time.Sleep(o.warmup)
	o.sp.end(ws)

	ms := o.sp.begin("run/measure", runSpan)
	res.measureSpan = ms
	res.start = c.edge()
	res.setup = res.start.proc.at.Sub(c.t0)
	measuring.Store(true)
	// The window is a whole number of slices; a reading at the end of
	// each gives the slice's commit rate and latency histogram, and the
	// replication-lag gauge, which every drain overwrites.
	slice := min(sliceLen, o.window)
	tick := time.NewTicker(slice)
	res.bounds = append(res.bounds, boundOf(res.start.proc.at, res.start.merged))
	for n := int(o.window / slice); n > 0; n-- {
		<-tick.C
		now := time.Now() // not the tick's own time: this goroutine may have waited for a processor
		snap, _ := c.snapshot()
		res.bounds = append(res.bounds, boundOf(now, snap))
		for name, v := range snap.Gauges {
			if strings.HasPrefix(name, "repl_lag") && v > res.lagMax {
				res.lagMax = v
			}
		}
	}
	tick.Stop()
	measuring.Store(false)
	res.end = c.edge()
	o.sp.end(ms)

	stopping.Store(true)
	wg.Wait() // each session's in-flight request answers or times out
	o.sp.end(runSpan)
	res.sessions = stats
	if c.trace != nil {
		res.trace = c.trace.Bytes()
	}
	if err := c.unstable(); err != nil {
		return nil, err
	}

	if err := verify(c, s, o, res); err != nil {
		return nil, err
	}
	return res, nil
}

// driveSession runs one closed-loop front-door session: update, then a
// read-only transaction carrying the token the update returned, one
// request outstanding. Only requests issued inside the window count.
func driveSession(cl *client.Client, src session, st *sessionStats, measuring, stopping *atomic.Bool, sp *spans, parent, idx int) {
	sess := sp.begin(fmt.Sprintf("session%d", idx), parent)
	defer sp.end(sess)
	do := func(p txn.Procedure, lat *[]time.Duration, name string) {
		counted := measuring.Load()
		rs := 0
		if counted {
			rs = sp.begin(name, sess)
		}
		t0 := time.Now()
		_, err := cl.DoRetry(p, clientRetries)
		d := time.Since(t0)
		if !counted {
			return
		}
		sp.end(rs)
		st.attempted++
		switch {
		case err == nil:
			*lat = append(*lat, d)
		case errors.Is(err, client.ErrAborted):
			st.aborted++
		default:
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
		}
	}
	for !stopping.Load() {
		do(src.nextWrite(), &st.writeLat, "client/write")
		if stopping.Load() {
			return
		}
		do(src.nextRead(), &st.readLat, "client/read")
	}
}

// verify is the correctness gate: freeze generation on both engines, let
// the fences drain, and require byte-identical partition checksums on
// both nodes. Traced runs additionally rebuild node 1's database from
// its recovery log alone and require the same checksums again.
func verify(c *cluster, s spec, o runOpts, res *clusterRun) error {
	vs := o.sp.begin("verify", 0)
	defer o.sp.end(vs)

	fs := o.sp.begin("verify/freeze", vs)
	for _, e := range c.eng {
		e.Freeze()
	}
	epochs := func() int64 { return c.eng[0].StatsSnapshot().Counters["epochs"] }
	from, deadline := epochs(), time.Now().Add(10*time.Second)
	for epochs() < from+settleEpochs {
		if time.Now().After(deadline) {
			return fmt.Errorf("verify: fences stopped completing after Freeze")
		}
		time.Sleep(iteration / 2)
	}
	o.sp.end(fs)
	if err := c.unstable(); err != nil {
		return err
	}
	if o.tamper != nil {
		o.tamper(c)
	}

	cs := o.sp.begin("verify/checksum", vs)
	var live [numPartitions]uint64
	for p := 0; p < numPartitions; p++ {
		live[p] = c.eng[0].DB(0).PartitionChecksum(p)
		if got := c.eng[1].DB(1).PartitionChecksum(p); got != live[p] {
			return fmt.Errorf("verify: partition %d diverged: node 0 %x, node 1 %x", p, live[p], got)
		}
	}
	o.sp.end(cs)

	if !o.traced {
		return nil
	}
	// The engines must be stopped before the log is read back: the fence
	// flushes already wrote every committed entry to the files.
	if err := c.stop(); err != nil {
		return fmt.Errorf("verify: close logs: %w", err)
	}
	logs := c.eng[1].LogFiles(1)
	res.walBytes = fileBytes(logs)
	w := s.newWorkload(o.sz)
	bs := o.sp.begin("verify/build_db", vs)
	db := w.BuildDB(numPartitions, nil)
	o.sp.end(bs)
	ls := o.sp.begin("verify/load", vs)
	w.Load(db)
	db.CommitEpoch()
	o.sp.end(ls)
	rs := o.sp.begin("verify/wal_recover", vs)
	t0 := time.Now()
	if _, _, err := wal.Recover(db, "", logs); err != nil {
		return fmt.Errorf("verify: wal recover: %w", err)
	}
	res.recoverTime = time.Since(t0)
	o.sp.end(rs)
	for p := 0; p < numPartitions; p++ {
		if got := db.PartitionChecksum(p); got != live[p] {
			return fmt.Errorf("verify: partition %d recovered from node 1's log as %x, live %x", p, got, live[p])
		}
	}
	return nil
}
