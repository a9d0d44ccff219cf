package baseline

import (
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/simnet"
)

// runRPC runs caller as a process on endpoint 0 of a four-endpoint
// simulated network, with a responder on each of endpoints 1..3.
// Responder d answers each request after delay[d], straight into the
// caller's port (as a router does), with its own id as the payload; a
// negative delay never answers.
func runRPC(t *testing.T, delay [4]time.Duration, caller func(s *rt.Sim, net *simnet.Network, port *rpcPort)) {
	t.Helper()
	s := rt.NewSim()
	net := simnet.New(s, simnet.Config{Nodes: 4, Latency: 20 * time.Microsecond, Seed: 1})
	port := newRPCPort(s)
	for d := 1; d < 4; d++ {
		s.Go(procName("responder", d, 0), func() {
			in := net.Inbox(d)
			for {
				req := in.Recv().(*rpcReq)
				if delay[d] < 0 {
					continue
				}
				s.Go(procName("reply", d, int(req.Seq)), func() {
					s.Sleep(delay[d])
					port.resp.Send(&rpcResp{Worker: req.Worker, Seq: req.Seq, OK: true, Payload: []byte{byte(d)}})
				})
			}
		})
	}
	done := false
	s.Go("caller", func() {
		caller(s, net, port)
		done = true
	})
	s.Run(10 * time.Second)
	s.Stop()
	if !done {
		t.Fatal("caller did not finish within 10 s of virtual time")
	}
}

func TestRPCCallWithoutReplyFailsAfterOneSecond(t *testing.T) {
	var resp *rpcResp
	var took time.Duration
	runRPC(t, [4]time.Duration{0, -1, 0, 0}, func(s *rt.Sim, net *simnet.Network, port *rpcPort) {
		start := s.Now()
		resp = port.call(net, 0, 1, 0, rpcRead, nil)
		took = s.Now() - start
	})
	if resp == nil || resp.OK {
		t.Fatalf("unanswered call returned %+v, want a failed reply", resp)
	}
	if took != time.Second {
		t.Fatalf("unanswered call gave up after %v of virtual time, want 1s", took)
	}
}

// A reply that arrives after its call gave up carries a stale Seq: the
// next call on the port skips it and returns its own reply.
func TestRPCCallSkipsStaleReply(t *testing.T) {
	var first, second *rpcResp
	runRPC(t, [4]time.Duration{0, 1500 * time.Millisecond, time.Second, 0}, func(s *rt.Sim, net *simnet.Network, port *rpcPort) {
		first = port.call(net, 0, 1, 0, rpcRead, nil)  // gives up at 1 s; its reply lands at 1.5 s
		second = port.call(net, 0, 2, 0, rpcRead, nil) // answered at 2 s
	})
	if first.OK {
		t.Fatalf("first call returned %+v, want it to time out", first)
	}
	if !second.OK || len(second.Payload) != 1 || second.Payload[0] != 2 {
		t.Fatalf("second call returned %+v, want endpoint 2's reply", second)
	}
}

// Replies arrive in the reverse of send order; callAll files each one
// under the destination it came from.
func TestRPCCallAllFilesRepliesByDestination(t *testing.T) {
	var out map[int]*rpcResp
	runRPC(t, [4]time.Duration{0, 3 * time.Millisecond, 2 * time.Millisecond, time.Millisecond}, func(s *rt.Sim, net *simnet.Network, port *rpcPort) {
		reqs := map[int]*rpcReq{}
		for d := 1; d < 4; d++ {
			reqs[d] = &rpcReq{Kind: rpcRead, From: 0}
		}
		out = port.callAll(net, 0, reqs)
	})
	if len(out) != 3 {
		t.Fatalf("callAll returned %d replies, want 3", len(out))
	}
	for d := 1; d < 4; d++ {
		if r := out[d]; r == nil || !r.OK || len(r.Payload) != 1 || int(r.Payload[0]) != d {
			t.Fatalf("reply filed under destination %d is %+v", d, r)
		}
	}
}
