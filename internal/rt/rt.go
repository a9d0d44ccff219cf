// Package rt abstracts time, scheduling and message passing so that the
// same database-engine code can run in two modes:
//
//   - Real mode: ordinary goroutines, wall-clock time and Go channels.
//     Used by the public API, the examples and the race-detected
//     correctness tests.
//
//   - Sim mode: a deterministic cooperative discrete-event simulation.
//     Exactly one process runs at a time; time is virtual and advances
//     only through Sleep/Compute/timeouts. Used by the benchmark harness
//     to reproduce the paper's multi-node experiments on a small host.
//
// Engine code must follow two rules:
//
//  1. All blocking is done through Runtime primitives (never bare
//     time.Sleep or raw channel operations).
//  2. Every potentially unbounded loop performs at least one Runtime
//     call per iteration, since the simulator cannot preempt.
package rt

import (
	"errors"
	"time"
)

// ErrStopped is the panic value used to unwind processes when a runtime
// shuts down. Process bodies never observe it: the Go wrapper recovers it.
var ErrStopped = errors.New("rt: runtime stopped")

// Runtime is the execution substrate for engine processes.
type Runtime interface {
	// Now returns the elapsed time since the runtime started.
	// In sim mode this is virtual time.
	Now() time.Duration

	// Sleep blocks the calling process for d.
	Sleep(d time.Duration)

	// Compute models consuming CPU for d. In sim mode it advances the
	// process's clock (other processes run meanwhile, as if on other
	// cores); in real mode it is a no-op because the real work already
	// took real time. Compute(0) returns immediately in both modes.
	Compute(d time.Duration)

	// Yield offers the processor to everything else that can run —
	// including processes waiting on network input — without advancing
	// time. Long-running loops that otherwise never block call it at a
	// bounded rate. In real mode Go preempts a running goroutine only
	// after ~10ms and polls the network only when a processor runs out
	// of runnable goroutines, so a loop per processor that never yields
	// starves the goroutines that serve the links, the replication
	// appliers and the phase coordinator (see Real.Yield). In sim mode
	// it is a no-op: Compute already hands control over, and an extra
	// scheduling point would change the deterministic event order.
	Yield()

	// Busy declares the calling process compute-bound — a loop that
	// will not block, only Yield — until the returned function is
	// called. The real runtime counts them: while fewer loops are busy
	// than there are processors, Go's scheduler serves everything else
	// on the idle ones and Yield has nothing to add; once every
	// processor has one, Yield is what lets the rest of the program run.
	// A no-op in sim mode.
	Busy() (done func())

	// Go spawns a new process. The name is used in diagnostics.
	Go(name string, fn func())

	// NewChan creates a mailbox with the given buffer capacity.
	// Capacity 0 means rendezvous (sender blocks until receiver takes).
	NewChan(capacity int) Chan

	// Stopped reports whether Stop has been called.
	Stopped() bool
}

// Chan is a FIFO mailbox between processes.
//
// Send and Recv block; when the runtime stops they unwind the calling
// process (the unwind is recovered by the Go wrapper, so engine code may
// simply ignore shutdown).
type Chan interface {
	// Send enqueues v, blocking while the buffer is full.
	Send(v any)

	// TrySend enqueues v if buffer space is available and reports
	// whether it did. It never blocks.
	TrySend(v any) bool

	// Recv dequeues the next value, blocking while the mailbox is empty.
	Recv() any

	// TryRecv dequeues the next value if one is available.
	TryRecv() (any, bool)

	// RecvTimeout dequeues the next value, giving up after d.
	// ok is false on timeout.
	RecvTimeout(d time.Duration) (v any, ok bool)

	// Len returns the number of buffered values.
	Len() int
}

// Stop recovers the ErrStopped unwind. Runtime implementations use it in
// their Go wrappers; engine code that spawns raw goroutines in real mode
// may use it too.
func recoverStopped() {
	if r := recover(); r != nil {
		if err, ok := r.(error); ok && errors.Is(err, ErrStopped) {
			return
		}
		panic(r)
	}
}
