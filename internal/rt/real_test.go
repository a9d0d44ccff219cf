package rt

import (
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRealChanRoundTrip(t *testing.T) {
	r := NewReal()
	ch := r.NewChan(1)
	var got atomic.Int64
	r.Go("producer", func() {
		for i := 1; i <= 3; i++ {
			ch.Send(i)
		}
	})
	r.Go("consumer", func() {
		for i := 0; i < 3; i++ {
			got.Add(int64(ch.Recv().(int)))
		}
	})
	deadline := time.Now().Add(2 * time.Second)
	for got.Load() != 6 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got.Load() != 6 {
		t.Fatalf("sum=%d, want 6", got.Load())
	}
	r.Stop()
}

func TestRealStopUnblocksSleepers(t *testing.T) {
	r := NewReal()
	exited := make(chan struct{})
	r.Go("sleeper", func() {
		defer close(exited)
		r.Sleep(time.Hour)
	})
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() { r.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not unblock a parked sleeper")
	}
	<-exited
}

func TestRealStopUnblocksChannelWaiters(t *testing.T) {
	r := NewReal()
	ch := r.NewChan(0)
	r.Go("recv", func() { ch.Recv() })
	r.Go("send", func() { ch2 := r.NewChan(0); ch2.Send(1) })
	time.Sleep(10 * time.Millisecond)
	done := make(chan struct{})
	go func() { r.Stop(); close(done) }()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not unblock channel waiters")
	}
}

func TestRealRecvTimeout(t *testing.T) {
	r := NewReal()
	ch := r.NewChan(1)
	res := make(chan bool, 1)
	r.Go("waiter", func() {
		_, ok := ch.RecvTimeout(20 * time.Millisecond)
		res <- ok
	})
	select {
	case ok := <-res:
		if ok {
			t.Fatal("expected timeout")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("RecvTimeout never returned")
	}
	r.Stop()
}

func TestRealComputeIsNoOp(t *testing.T) {
	r := NewReal()
	start := time.Now()
	r.Compute(time.Hour)
	if time.Since(start) > time.Second {
		t.Fatal("Compute must not block in real mode")
	}
	r.Stop()
}

// A goroutine blocked in a socket read must get to run when a busy loop
// yields, with every processor occupied — the case runtime.Gosched does
// not cover (a goroutine that re-queues itself is always runnable, so
// the scheduler never polls the network; the reader would wait for
// sysmon's 10ms fallback poll).
func TestRealYieldPollsTheNetwork(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	client, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer server.Close()

	r := NewReal()
	defer r.Stop()
	defer r.Busy()() // one busy loop, one processor: saturated
	var got atomic.Bool
	r.Go("reader", func() {
		if _, err := server.Read(make([]byte, 1)); err == nil {
			got.Store(true)
		}
	})
	time.Sleep(10 * time.Millisecond) // let the reader park in the poller

	if _, err := client.Write([]byte{1}); err != nil {
		t.Fatal(err)
	}
	// Spin without ever blocking, as a worker loop does, yielding every
	// ~20µs of work. The reader should run at the first yield after the
	// byte lands; allow a hundred.
	yields := 0
	for start := time.Now(); !got.Load() && time.Since(start) < 5*time.Second; {
		for spin := time.Now(); time.Since(spin) < 20*time.Microsecond; {
		}
		r.Yield()
		yields++
	}
	if !got.Load() {
		t.Fatal("socket reader never ran")
	}
	if yields > 100 {
		t.Fatalf("socket reader ran after %d yields (≥ %v of spinning): the network was not polled", yields, time.Duration(yields)*20*time.Microsecond)
	}
}

// Concurrent yielders all resume, and Stop releases one that is parked.
func TestRealYieldConcurrentAndStop(t *testing.T) {
	r := NewReal()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// The first loops in find idle processors (Gosched), the
			// later ones a saturated process (the pipe).
			defer r.Busy()()
			for i := 0; i < 200; i++ {
				r.Yield()
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("concurrent yielders did not all resume")
	}
	r.Stop()
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		defer r.Busy()()
	}
	r.Yield() // saturated, after Stop: must not block on the closed pipe
}

// BenchmarkRealYield is the price of one yield on a saturated process
// (callers pay it every ~100µs of work).
func BenchmarkRealYield(b *testing.B) {
	r := NewReal()
	defer r.Stop()
	for g := 0; g < runtime.GOMAXPROCS(0); g++ {
		defer r.Busy()()
	}
	for i := 0; i < b.N; i++ {
		r.Yield()
	}
}
