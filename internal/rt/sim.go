package rt

import (
	"container/heap"
	"fmt"
	"time"
)

// Sim is a deterministic cooperative discrete-event simulation Runtime.
//
// Processes are goroutines, but exactly one runs at a time: the scheduler
// hands control to a process and waits for it to yield inside a runtime
// primitive. Virtual time advances only when no process is runnable.
// Given the same spawn order and per-process RNG seeds, execution is
// fully deterministic.
type Sim struct {
	now     time.Duration
	seq     uint64 // event tiebreaker
	ready   []*simProc
	events  eventHeap
	procs   []*simProc
	live    int
	stopped bool
	running bool
	cur     *simProc

	// schedCh is signalled by the current process when it yields or exits.
	schedCh chan struct{}
}

// NewSim returns a simulation runtime at virtual time zero.
func NewSim() *Sim {
	return &Sim{schedCh: make(chan struct{})}
}

var _ Runtime = (*Sim)(nil)

type procState uint8

const (
	procReady procState = iota
	procRunning
	procParked
	procDone
)

type wake struct {
	stopped  bool
	timedOut bool
	val      any
}

type simProc struct {
	id      int
	name    string
	state   procState
	resume  chan wake
	pending wake
	fn      func()

	// waiter is the channel wait token this process is parked on, if any.
	waiter *waiter
	// timer is the pending timeout event, if any.
	timer *event
}

type event struct {
	at       time.Duration
	seq      uint64
	p        *simProc
	canceled bool
	timeout  bool // wake with timedOut=true
}

type eventHeap []*event

func (h eventHeap) Len() int { return len(h) }
func (h eventHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h eventHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)   { *h = append(*h, x.(*event)) }
func (h *eventHeap) Pop() any {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

func (s *Sim) nextSeq() uint64 { s.seq++; return s.seq }

// Now returns the current virtual time.
func (s *Sim) Now() time.Duration { return s.now }

// Stopped reports whether Stop has been called.
func (s *Sim) Stopped() bool { return s.stopped }

func (s *Sim) schedule(e *event) { heap.Push(&s.events, e) }

// enqueueWake makes p runnable with the given wake payload.
func (s *Sim) enqueueWake(p *simProc, w wake) {
	p.state = procReady
	p.pending = w
	s.ready = append(s.ready, p)
}

// Go spawns a new simulation process. It may be called before Run or from
// inside a running process.
func (s *Sim) Go(name string, fn func()) {
	p := &simProc{
		id:     len(s.procs),
		name:   name,
		resume: make(chan wake),
		fn:     fn,
	}
	s.procs = append(s.procs, p)
	s.live++
	go p.run(s)
	s.enqueueWake(p, wake{})
}

func (p *simProc) run(s *Sim) {
	w := <-p.resume // first activation
	if !w.stopped {
		func() {
			defer recoverStopped()
			p.fn()
		}()
	}
	p.state = procDone
	s.live--
	s.schedCh <- struct{}{}
}

// yield parks the calling process and hands control back to the
// scheduler; it returns when the scheduler wakes this process again.
func (s *Sim) yield(p *simProc) wake {
	p.state = procParked
	s.schedCh <- struct{}{}
	w := <-p.resume
	if w.stopped {
		panic(ErrStopped)
	}
	return w
}

// mustCur returns the currently running process, panicking if the caller
// is not a simulation process (e.g. the test goroutine).
func (s *Sim) mustCur() *simProc {
	if s.cur == nil || s.cur.state != procRunning {
		panic("rt: Sim primitive called from outside a simulation process")
	}
	return s.cur
}

// Sleep advances this process to now+d.
func (s *Sim) Sleep(d time.Duration) {
	if s.stopped {
		panic(ErrStopped)
	}
	p := s.mustCur()
	if d < 0 {
		d = 0
	}
	s.schedule(&event{at: s.now + d, seq: s.nextSeq(), p: p})
	s.yield(p)
}

// Compute models d of CPU time; other processes run concurrently in
// virtual time, as if this process had its own core.
func (s *Sim) Compute(d time.Duration) {
	if d <= 0 {
		return
	}
	s.Sleep(d)
}

// Yield is a no-op: sim processes hand control over in Compute and
// Sleep, and an extra scheduling point would reorder events.
func (s *Sim) Yield() {}

// Busy is a no-op: exactly one sim process runs at a time.
func (s *Sim) Busy() func() { return func() {} }

// NewChan returns a simulated mailbox.
func (s *Sim) NewChan(capacity int) Chan {
	return &simChan{s: s, capacity: capacity}
}

// Run executes the simulation until virtual time reaches `until`, or until
// every process is parked with no pending events (quiescence). It returns
// the virtual time at which it stopped.
func (s *Sim) Run(until time.Duration) time.Duration {
	if s.running {
		panic("rt: Sim.Run reentered")
	}
	s.running = true
	defer func() { s.running = false }()
	for {
		if len(s.ready) == 0 {
			// Advance virtual time to the next event.
			fired := false
			for s.events.Len() > 0 {
				e := s.events[0]
				if e.canceled {
					heap.Pop(&s.events)
					continue
				}
				if e.at > until {
					break
				}
				heap.Pop(&s.events)
				if e.at > s.now {
					s.now = e.at
				}
				s.fire(e)
				fired = true
				break
			}
			if fired {
				continue
			}
			// No runnable process and no event within the horizon.
			if s.events.Len() > 0 {
				s.now = until
			}
			return s.now
		}
		p := s.ready[0]
		s.ready = s.ready[1:]
		s.resume(p)
	}
}

// Quiescent reports whether the simulation has neither runnable processes
// nor pending events (all live processes are parked forever).
func (s *Sim) Quiescent() bool {
	if len(s.ready) > 0 {
		return false
	}
	for _, e := range s.events {
		if !e.canceled {
			return false
		}
	}
	return true
}

// LiveProcs returns the number of processes that have not exited.
func (s *Sim) LiveProcs() int { return s.live }

func (s *Sim) fire(e *event) {
	p := e.p
	if p.state == procDone {
		return
	}
	p.timer = nil
	if e.timeout {
		// Timeout on a channel wait: cancel the wait token.
		if p.waiter != nil {
			p.waiter.canceled = true
			p.waiter = nil
		}
		s.enqueueWake(p, wake{timedOut: true})
		return
	}
	s.enqueueWake(p, wake{})
}

// resume hands the execution token to p and blocks until p yields back.
func (s *Sim) resume(p *simProc) {
	if p.state == procDone {
		return
	}
	p.state = procRunning
	s.cur = p
	w := p.pending
	p.pending = wake{}
	p.resume <- w
	<-s.schedCh
	s.cur = nil
}

// Stop unwinds every live process deterministically and waits for them to
// exit. After Stop the Sim must not be reused.
func (s *Sim) Stop() {
	s.stopped = true
	for _, p := range s.procs {
		if p.state == procDone || p.state == procRunning {
			continue
		}
		p.pending = wake{stopped: true}
		s.resume(p)
	}
	if s.live != 0 {
		panic(fmt.Sprintf("rt: %d processes survived Stop", s.live))
	}
}

// DumpParked returns the names of processes that are parked; useful in
// tests to diagnose unexpected quiescence (i.e. deadlock).
func (s *Sim) DumpParked() []string {
	var names []string
	for _, p := range s.procs {
		if p.state == procParked {
			names = append(names, p.name)
		}
	}
	return names
}

// ---- simulated channels ----

type waiter struct {
	p        *simProc
	val      any // value carried by a parked sender
	canceled bool
}

type simChan struct {
	s        *Sim
	capacity int
	buf      []any
	sendq    []*waiter
	recvq    []*waiter
}

func (c *simChan) Len() int { return len(c.buf) }

func (c *simChan) popRecv() *waiter {
	for len(c.recvq) > 0 {
		w := c.recvq[0]
		c.recvq = c.recvq[1:]
		if !w.canceled {
			return w
		}
	}
	return nil
}

func (c *simChan) popSend() *waiter {
	for len(c.sendq) > 0 {
		w := c.sendq[0]
		c.sendq = c.sendq[1:]
		if !w.canceled {
			return w
		}
	}
	return nil
}

// wakeWaiter makes w's process runnable, cancelling any pending timeout.
func (c *simChan) wakeWaiter(w *waiter, wk wake) {
	p := w.p
	p.waiter = nil
	if p.timer != nil {
		p.timer.canceled = true
		p.timer = nil
	}
	c.s.enqueueWake(p, wk)
}

func (c *simChan) Send(v any) {
	s := c.s
	if s.stopped {
		panic(ErrStopped)
	}
	if r := c.popRecv(); r != nil {
		c.wakeWaiter(r, wake{val: v})
		return
	}
	if len(c.buf) < c.capacity {
		c.buf = append(c.buf, v)
		return
	}
	// Buffer full (or rendezvous): park as a sender.
	p := s.mustCur()
	w := &waiter{p: p, val: v}
	p.waiter = w
	c.sendq = append(c.sendq, w)
	s.yield(p)
}

func (c *simChan) TrySend(v any) bool {
	s := c.s
	if s.stopped {
		panic(ErrStopped)
	}
	if r := c.popRecv(); r != nil {
		c.wakeWaiter(r, wake{val: v})
		return true
	}
	if len(c.buf) < c.capacity {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// take removes the next available value assuming one exists.
func (c *simChan) take() any {
	if len(c.buf) > 0 {
		v := c.buf[0]
		c.buf = c.buf[1:]
		// Promote a parked sender into the freed buffer slot.
		if w := c.popSend(); w != nil {
			c.buf = append(c.buf, w.val)
			c.wakeWaiter(w, wake{})
		}
		return v
	}
	if w := c.popSend(); w != nil { // rendezvous
		v := w.val
		c.wakeWaiter(w, wake{})
		return v
	}
	panic("rt: take on empty channel")
}

func (c *simChan) available() bool {
	if len(c.buf) > 0 {
		return true
	}
	for _, w := range c.sendq {
		if !w.canceled {
			return true
		}
	}
	return false
}

func (c *simChan) Recv() any {
	s := c.s
	if s.stopped {
		panic(ErrStopped)
	}
	if c.available() {
		return c.take()
	}
	p := s.mustCur()
	w := &waiter{p: p}
	p.waiter = w
	c.recvq = append(c.recvq, w)
	wk := s.yield(p)
	return wk.val
}

func (c *simChan) TryRecv() (any, bool) {
	if c.s.stopped {
		panic(ErrStopped)
	}
	if c.available() {
		return c.take(), true
	}
	return nil, false
}

func (c *simChan) RecvTimeout(d time.Duration) (any, bool) {
	s := c.s
	if s.stopped {
		panic(ErrStopped)
	}
	if c.available() {
		return c.take(), true
	}
	if d <= 0 {
		return nil, false
	}
	p := s.mustCur()
	w := &waiter{p: p}
	p.waiter = w
	c.recvq = append(c.recvq, w)
	ev := &event{at: s.now + d, seq: s.nextSeq(), p: p, timeout: true}
	p.timer = ev
	s.schedule(ev)
	wk := s.yield(p)
	if wk.timedOut {
		return nil, false
	}
	return wk.val, true
}
