package rt

import (
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// Real is the wall-clock Runtime backed by ordinary goroutines and Go
// channels. It is the substrate for the public API and the examples.
type Real struct {
	start time.Time
	stop  chan struct{}
	once  sync.Once
	wg    sync.WaitGroup

	// busy counts the processes between Busy and its done call.
	busy atomic.Int32

	// The yield pipe (see Yield), created on first use.
	yieldOnce    sync.Once
	yieldR       *os.File
	yieldW       *os.File
	yieldResumed chan struct{}
}

// NewReal returns a running real-time runtime.
func NewReal() *Real {
	return &Real{start: time.Now(), stop: make(chan struct{})}
}

// Now returns wall-clock time elapsed since NewReal.
func (r *Real) Now() time.Duration { return time.Since(r.start) }

// Sleep blocks for d or until the runtime stops.
func (r *Real) Sleep(d time.Duration) {
	if d <= 0 {
		r.checkStopped()
		return
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-r.stop:
		panic(ErrStopped)
	}
}

// Compute is a no-op in real mode: the modelled work took real time.
func (r *Real) Compute(time.Duration) {}

// Busy counts the caller as a compute-bound loop until done is called.
func (r *Real) Busy() (done func()) {
	r.busy.Add(1)
	return func() { r.busy.Add(-1) }
}

// Yield lets everything else that can run do so, the goroutines
// blocked on network input included.
//
// While fewer loops are Busy than there are processors that is a plain
// runtime.Gosched: an idle processor picks up whatever becomes runnable
// and sleeps in the network poller, so the network is served without
// our help.
//
// With a busy loop on every processor Gosched is not enough. The
// scheduler polls the network only when a processor has nothing
// runnable, and a goroutine that merely re-queues itself is always
// runnable: goroutines blocked in socket reads (link readers, client
// connections) are then woken by sysmon's 10ms fallback poll and
// nothing else. So the caller writes a byte into a pipe whose read end
// sits in the poller, and blocks; its processor runs what is queued,
// finds nothing more, polls — which readies the pipe's reader along
// with every socket that became readable — and the reader resumes the
// caller. Two small syscalls and two goroutine switches, ~4µs. (Taken
// with a processor idle the same round trip crosses threads and costs
// several times that, for nothing: hence the count.)
func (r *Real) Yield() {
	if int(r.busy.Load()) >= runtime.GOMAXPROCS(0) {
		r.yieldOnce.Do(r.startYieldPump)
		if r.yieldW != nil {
			if _, err := r.yieldW.Write(yieldByte); err == nil {
				select {
				case <-r.yieldResumed:
				case <-r.stop:
					panic(ErrStopped)
				}
				return
			}
		}
		// No pipe (none could be opened, or Stop closed it): fall through.
	}
	runtime.Gosched()
}

var yieldByte = []byte{0}

// startYieldPump opens the yield pipe and starts its reader: one resume
// token per byte, so concurrent yielders each get theirs.
func (r *Real) startYieldPump() {
	pr, pw, err := os.Pipe()
	if err != nil {
		return // Yield falls back to Gosched
	}
	r.yieldR, r.yieldW = pr, pw
	r.yieldResumed = make(chan struct{})
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		buf := make([]byte, 64)
		for {
			n, err := pr.Read(buf)
			if err != nil {
				return // closed by Stop
			}
			for ; n > 0; n-- {
				select {
				case r.yieldResumed <- struct{}{}:
				case <-r.stop:
					return
				}
			}
		}
	}()
}

// Go spawns fn on a goroutine tracked by Stop.
func (r *Real) Go(name string, fn func()) {
	_ = name
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		defer recoverStopped()
		fn()
	}()
}

// Stopped reports whether Stop has been called.
func (r *Real) Stopped() bool {
	select {
	case <-r.stop:
		return true
	default:
		return false
	}
}

func (r *Real) checkStopped() {
	if r.Stopped() {
		panic(ErrStopped)
	}
}

// Stop unblocks every process parked in a runtime primitive and waits for
// all of them to unwind. It is idempotent.
func (r *Real) Stop() {
	r.once.Do(func() {
		close(r.stop)
		// Settle the yield pipe: after this no Yield opens one, and an
		// open one is closed so its reader returns.
		r.yieldOnce.Do(func() {})
		if r.yieldR != nil {
			r.yieldR.Close()
			r.yieldW.Close()
		}
	})
	r.wg.Wait()
}

// NewChan returns a mailbox backed by a Go channel.
func (r *Real) NewChan(capacity int) Chan {
	return &realChan{rt: r, ch: make(chan any, capacity)}
}

type realChan struct {
	rt *Real
	ch chan any
}

func (c *realChan) Send(v any) {
	select {
	case c.ch <- v:
	case <-c.rt.stop:
		panic(ErrStopped)
	}
}

func (c *realChan) TrySend(v any) bool {
	select {
	case c.ch <- v:
		return true
	default:
		return false
	}
}

func (c *realChan) Recv() any {
	select {
	case v := <-c.ch:
		return v
	case <-c.rt.stop:
		panic(ErrStopped)
	}
}

func (c *realChan) TryRecv() (any, bool) {
	select {
	case v := <-c.ch:
		return v, true
	default:
		return nil, false
	}
}

func (c *realChan) RecvTimeout(d time.Duration) (any, bool) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case v := <-c.ch:
		return v, true
	case <-t.C:
		return nil, false
	case <-c.rt.stop:
		panic(ErrStopped)
	}
}

func (c *realChan) Len() int { return len(c.ch) }
