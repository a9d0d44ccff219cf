// Package conformance pins the transport.Transport contract with one
// suite that every implementation must pass: per-sender-link FIFO,
// fail-stop SetDown drops, local delivery, and byte/message accounting
// monotonicity. simnet runs it on both runtimes; tcpnet runs it over
// real loopback sockets with one process per endpoint.
package conformance

import (
	"sync"
	"testing"
	"time"

	"star/internal/transport"
)

// Cluster is one transport under test, viewed per endpoint: a
// single-process transport (simnet) returns the same object for every
// endpoint, a multi-process one (tcpnet) returns the hosting process's
// network. The suite needs at least 3 endpoints.
type Cluster struct {
	// Endpoint returns the transport hosting endpoint i (sends from i
	// and Inbox(i) go through it).
	Endpoint func(i int) transport.Transport
	// Endpoints is the endpoint count (≥ 3).
	Endpoints int
	// Spawn runs fn as a process of the system under test.
	Spawn func(fn func())
	// Settle blocks until every spawned process has finished (real
	// runtimes) or until virtual time runs out (simulated ones). Each
	// subtest spawns, settles once, then asserts.
	Settle func()
	// Msg builds a test message with the given id whose Size() is size
	// (size ≥ 16; encodable on transports with a real codec, to a frame
	// of that length).
	Msg func(id, size int) transport.Message
	// MsgID extracts the id from a received test message.
	MsgID func(m any) int
	// Yield briefly parks the calling process so concurrently spawned
	// ones interleave (a short runtime Sleep; required on cooperative
	// simulated runtimes where a tight loop never preempts).
	Yield func()
}

// setDownEverywhere applies a failure flag on every process, matching
// how a cluster-wide view change reaches each process's transport.
func (c *Cluster) setDownEverywhere(node int, down bool) {
	seen := map[transport.Transport]bool{}
	for i := 0; i < c.Endpoints; i++ {
		if ep := c.Endpoint(i); !seen[ep] {
			seen[ep] = true
			ep.SetDown(node, down)
		}
	}
}

// Run executes the conformance suite. mk must return a fresh cluster
// per call (subtests mutate failure state and counters).
func Run(t *testing.T, mk func(t *testing.T) *Cluster) {
	t.Helper()

	t.Run("FIFOPerSenderLink", func(t *testing.T) {
		c := mk(t)
		const msgs = 200
		var mu sync.Mutex
		var got []int
		c.Spawn(func() {
			for i := 0; i < msgs; i++ {
				c.Endpoint(0).Send(0, 1, transport.Replication, c.Msg(i, 16+i%700))
			}
		})
		c.Spawn(func() {
			in := c.Endpoint(1).Inbox(1)
			for i := 0; i < msgs; i++ {
				v, ok := in.RecvTimeout(5 * time.Second)
				if !ok {
					return
				}
				mu.Lock()
				got = append(got, c.MsgID(v))
				mu.Unlock()
			}
		})
		c.Settle()
		mu.Lock()
		defer mu.Unlock()
		if len(got) != msgs {
			t.Fatalf("delivered %d/%d messages", len(got), msgs)
		}
		for i, id := range got {
			if id != i {
				t.Fatalf("message %d arrived out of order (got id %d); per-link FIFO violated", i, id)
			}
		}
	})

	t.Run("LocalSendDelivers", func(t *testing.T) {
		c := mk(t)
		var ok bool
		var id int
		c.Spawn(func() {
			c.Endpoint(0).Send(0, 0, transport.Control, c.Msg(7, 16))
			var v any
			if v, ok = c.Endpoint(0).Inbox(0).RecvTimeout(2 * time.Second); ok {
				id = c.MsgID(v)
			}
		})
		c.Settle()
		if !ok || id != 7 {
			t.Fatalf("local send not delivered (ok=%v id=%d)", ok, id)
		}
	})

	t.Run("SetDownDropsAndRecovers", func(t *testing.T) {
		c := mk(t)
		c.setDownEverywhere(1, true)
		if !c.Endpoint(0).IsDown(1) {
			t.Fatal("IsDown must reflect SetDown")
		}
		delivered := false
		c.Spawn(func() { c.Endpoint(0).Send(0, 1, transport.Data, c.Msg(1, 16)) })
		c.Spawn(func() {
			if _, ok := c.Endpoint(1).Inbox(1).RecvTimeout(200 * time.Millisecond); ok {
				delivered = true
			}
		})
		c.Settle()
		if delivered {
			t.Fatal("message delivered to a down endpoint")
		}
		if c.Endpoint(0).Dropped() == 0 {
			t.Fatal("Dropped must count messages dropped for a down endpoint")
		}
		// Recovery: traffic flows again.
		c.setDownEverywhere(1, false)
		recovered := false
		c.Spawn(func() { c.Endpoint(0).Send(0, 1, transport.Data, c.Msg(2, 16)) })
		c.Spawn(func() {
			if v, ok := c.Endpoint(1).Inbox(1).RecvTimeout(5 * time.Second); ok && c.MsgID(v) == 2 {
				recovered = true
			}
		})
		c.Settle()
		if !recovered {
			t.Fatal("message not delivered after endpoint recovered")
		}
	})

	// SetDown flapping: rapid down/up cycles on one endpoint while
	// concurrent senders hammer it and a healthy peer. Pins that no
	// combination of flap timing can deadlock a sender, duplicate a
	// delivery, or run any accounting counter backwards — the flapped
	// path's only permitted outcomes per message are exactly-once or
	// counted-drop.
	t.Run("SetDownFlapping", func(t *testing.T) {
		c := mk(t)
		const healthyMsgs, flappedMsgs, flaps = 200, 200, 40
		var mu sync.Mutex
		var healthy []int
		flapped := map[int]int{}
		var acct [][3]int64 // (Messages(Data), TotalBytes, Dropped) samples

		c.Spawn(func() { // healthy path: 0 → 2, untouched by the flapping
			for i := 0; i < healthyMsgs; i++ {
				c.Endpoint(0).Send(0, 2, transport.Data, c.Msg(i, 32))
			}
		})
		c.Spawn(func() { // flapped path: 0 → 1
			for i := 0; i < flappedMsgs; i++ {
				c.Endpoint(0).Send(0, 1, transport.Data, c.Msg(i, 32))
				if i%4 == 0 {
					c.Yield()
				}
			}
		})
		c.Spawn(func() { // the flapper
			for k := 0; k < flaps; k++ {
				c.setDownEverywhere(1, true)
				c.Yield()
				c.setDownEverywhere(1, false)
				c.Yield()
				ep := c.Endpoint(0)
				mu.Lock()
				acct = append(acct, [3]int64{ep.Messages(transport.Data), ep.TotalBytes(), ep.Dropped()})
				mu.Unlock()
			}
		})
		c.Spawn(func() {
			in := c.Endpoint(2).Inbox(2)
			for i := 0; i < healthyMsgs; i++ {
				v, ok := in.RecvTimeout(5 * time.Second)
				if !ok {
					return
				}
				mu.Lock()
				healthy = append(healthy, c.MsgID(v))
				mu.Unlock()
			}
		})
		c.Spawn(func() {
			in := c.Endpoint(1).Inbox(1)
			for {
				v, ok := in.RecvTimeout(500 * time.Millisecond)
				if !ok {
					return
				}
				mu.Lock()
				flapped[c.MsgID(v)]++
				mu.Unlock()
			}
		})
		c.Settle()
		mu.Lock()
		defer mu.Unlock()
		if len(healthy) != healthyMsgs {
			t.Fatalf("healthy path delivered %d/%d while another endpoint flapped", len(healthy), healthyMsgs)
		}
		for i, id := range healthy {
			if id != i {
				t.Fatalf("healthy path message %d out of order (id %d)", i, id)
			}
		}
		for id, n := range flapped {
			if n > 1 {
				t.Fatalf("flapped path delivered id %d %d times (at-most-once violated)", id, n)
			}
		}
		for i := 1; i < len(acct); i++ {
			for f := 0; f < 3; f++ {
				if acct[i][f] < acct[i-1][f] {
					t.Fatalf("accounting field %d decreased under flapping: %d → %d", f, acct[i-1][f], acct[i][f])
				}
			}
		}
	})

	t.Run("AccountingMonotoneAndExact", func(t *testing.T) {
		c := mk(t)
		type step struct {
			class transport.Class
			size  int
		}
		script := []step{
			{transport.Replication, 100},
			{transport.Replication, 150},
			{transport.Data, 50},
			{transport.Control, 20},
		}
		sender := c.Endpoint(0)
		done := make(chan struct{})
		var snaps [][3]int64 // per-class byte counters after each send
		c.Spawn(func() {
			defer close(done)
			for _, s := range script {
				sender.Send(0, 1, s.class, c.Msg(0, s.size))
				snaps = append(snaps, [3]int64{
					sender.Bytes(transport.Control),
					sender.Bytes(transport.Data),
					sender.Bytes(transport.Replication),
				})
			}
		})
		c.Spawn(func() {
			in := c.Endpoint(1).Inbox(1)
			for range script {
				in.RecvTimeout(5 * time.Second)
			}
		})
		c.Settle()
		<-done
		// Monotone: every counter is non-decreasing across sends.
		for i := 1; i < len(snaps); i++ {
			for cl := 0; cl < 3; cl++ {
				if snaps[i][cl] < snaps[i-1][cl] {
					t.Fatalf("class %d bytes decreased: %d → %d", cl, snaps[i-1][cl], snaps[i][cl])
				}
			}
		}
		// Exact: a send is charged its message's Size(), the frame length.
		wantMsgs := map[transport.Class]int64{}
		wantBytes := map[transport.Class]int64{}
		for _, s := range script {
			wantMsgs[s.class]++
			wantBytes[s.class] += int64(s.size)
		}
		var total int64
		for cl := transport.Class(0); cl < transport.NumClasses; cl++ {
			if got := sender.Messages(cl); got != wantMsgs[cl] {
				t.Fatalf("class %d: %d messages, want %d", cl, got, wantMsgs[cl])
			}
			if got := sender.Bytes(cl); got != wantBytes[cl] {
				t.Fatalf("class %d: %d bytes, want the sizes' sum %d", cl, got, wantBytes[cl])
			}
			total += sender.Bytes(cl)
		}
		if sender.TotalBytes() != total {
			t.Fatalf("TotalBytes %d != sum of classes %d", sender.TotalBytes(), total)
		}
	})
}
