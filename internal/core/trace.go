package core

import (
	"encoding/json"
	"strconv"
	"time"
)

// TraceEvent is one line of the coordinator's epoch timeline
// (Config.Trace): emitted after every committed fence, JSON-encoded,
// newline-terminated. Durations are microseconds so the lines stay
// grep/jq-friendly; Commits keys are node ids as decimal strings (JSON
// object keys must be strings). Faults carries the transport's
// cumulative fault-injection counters when the run injects faults
// (star-node -faults, chaos soaks), so a soak's timeline shows which
// epochs rode through which injections.
type TraceEvent struct {
	Epoch uint64 `json:"epoch"`
	// Phase is the committed phase's kind: "partitioned" or
	// "single-master".
	Phase string `json:"phase"`
	// NowUS is the coordinator clock at emission (process-local origin).
	NowUS int64 `json:"now_us"`
	// TauUS is the phase slice the tuner allotted this epoch.
	TauUS int64 `json:"tau_us"`
	// OverrunUS is how far the phase ran past its slice: phase command
	// out to last phase report in, minus TauUS — command propagation,
	// workers finishing their last transaction, final flushes and the
	// report's way back. TauUS + OverrunUS + FenceUS is the epoch's
	// whole wall time.
	OverrunUS int64 `json:"overrun_us"`
	// FenceUS is the replication fence's duration: last phase report to
	// last fence ack.
	FenceUS int64 `json:"fence_us"`
	// Committed is the cluster-wide commit count of this epoch; Commits
	// breaks it down per node.
	Committed int64            `json:"committed"`
	Commits   map[string]int64 `json:"commits,omitempty"`
	// Queued is the master-queue backlog reported at the phase end.
	Queued int64 `json:"queued"`
	// Topology is the installed topology version the epoch ran under.
	Topology uint64 `json:"topology"`
	// Failed lists nodes the coordinator currently considers failed.
	Failed []int `json:"failed,omitempty"`
	// Faults maps fault family → cumulative injections so far.
	Faults map[string]int64 `json:"faults,omitempty"`
}

// noteEpoch runs on the coordinator goroutine after every committed
// fence, before the epoch counter advances: it feeds the registry's
// epoch/phase counters and the overrun and fence histograms, and emits one
// timeline line when Config.Trace is set. Only the coordinator-hosting
// process reaches here, so those counters are zero elsewhere — exactly
// what cluster-merged views want (no double counting).
func (c *coordinator) noteEpoch(done map[int]msgPhaseDone, tau, overrun, fenceDur time.Duration) {
	e := c.e
	e.epochsC.Inc()
	var committed int64
	for _, pd := range done {
		committed += pd.Committed
	}
	if c.phase == Partitioned {
		e.phasePart.Inc()
		e.commitPart.Add(committed)
	} else {
		e.phaseSingle.Inc()
		e.commitSingle.Add(committed)
	}
	e.overrunHist.Observe(overrun)
	e.fenceHist.Observe(fenceDur)
	if e.cfg.Trace == nil {
		return
	}
	view := c.view.Load()
	ev := TraceEvent{
		Epoch:     c.epoch,
		Phase:     c.phase.String(),
		NowUS:     e.cfg.RT.Now().Microseconds(),
		TauUS:     tau.Microseconds(),
		OverrunUS: overrun.Microseconds(),
		FenceUS:   fenceDur.Microseconds(),
		Committed: committed,
		Queued:    c.backlog,
		Topology:  view.Version,
		Failed:    view.failed,
	}
	ev.Commits = make(map[string]int64, len(done)) // omitted when empty, as Faults is
	for id, pd := range done {
		ev.Commits[strconv.Itoa(id)] = pd.Committed
	}
	if fi, ok := e.net.(faultInjector); ok {
		ev.Faults = fi.Injected()
	}
	b, err := json.Marshal(ev)
	if err != nil {
		return // never let tracing take the coordinator down
	}
	// Write errors are ignored too: a full disk must not stall fences.
	e.cfg.Trace.Write(append(b, '\n'))
}
