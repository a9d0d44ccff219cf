package core

import (
	"maps"
	"slices"

	"star/internal/transport"
)

// AdminProtoVersion is the admin envelope version. Both sides reject
// frames from a future protocol rather than misparse them.
const AdminProtoVersion = 1

// AdminOp discriminates the unified control-plane protocol: one
// versioned request/response envelope covers observation (freeze,
// checksums, fault stats, metrics) and the elastic-membership
// operations. Its one client is internal/client, the same session that
// runs transactions (star-admin is a CLI over it). Every node serves the
// envelope from its client front door, forwarding node-scoped ops to
// their target and membership ops to the coordinator.
type AdminOp uint8

const (
	// AdminFreeze toggles workload generation on the receiving node.
	// Front-door requests (Ticket != 0) fan out to every member, so one
	// door freezes the whole cluster; the fanned-out copies carry Ticket
	// 0 and apply locally only.
	AdminFreeze AdminOp = iota + 1
	// AdminChecksums returns the target node's per-partition checksums.
	AdminChecksums
	// AdminFaultStats returns the target node's fault-injection counters.
	AdminFaultStats
	// AdminJoin asks the coordinator to admit node Node at the next
	// fence: snapshot catch-up first, then the view that has it — the
	// next topology version for a dark or drained slot, the installed
	// one for a failed member (a crash rejoin).
	AdminJoin
	// AdminDrain asks the coordinator to migrate node Node's partitions
	// away at the next fence and remove it from the member set.
	AdminDrain
	_ // retired: AdminRebalance (a member set has one layout)
	// AdminTopologyGet returns the installed topology version, member
	// set, master map, and the members' client front-door addresses.
	AdminTopologyGet
	// AdminStats returns the target node's metric-registry snapshot
	// (counters, gauges, histograms — see Engine.StatsSnapshot) as an
	// encoded metrics.Snapshot blob in Stats.
	AdminStats
)

func (op AdminOp) String() string {
	switch op {
	case AdminFreeze:
		return "freeze"
	case AdminChecksums:
		return "checksums"
	case AdminFaultStats:
		return "fault-stats"
	case AdminJoin:
		return "join"
	case AdminDrain:
		return "drain"
	case AdminTopologyGet:
		return "topology-get"
	case AdminStats:
		return "stats"
	}
	return "unknown"
}

// AdminReq is the unified admin request envelope.
type AdminReq struct {
	// V is the protocol version (AdminProtoVersion).
	V uint8
	// Op selects the operation.
	Op AdminOp
	// From is the endpoint the response is routed back to: a node
	// hosting the submitting front-door connection, or the coordinator.
	From int
	// Ticket correlates the response with a waiting submitter. 0 means
	// fire-and-forget (freeze fanout, engine-internal requests).
	Ticket uint64
	// Node is the target for node-scoped ops (Checksums, FaultStats) and
	// the subject for membership ops (Join, Drain). -1 targets the
	// receiving node itself.
	Node int
	// On is the AdminFreeze toggle.
	On bool
}

// AdminResp is the unified admin response envelope. Fields beyond the
// correlation header are op-specific; unused ones stay zero.
type AdminResp struct {
	V      uint8
	Op     AdminOp
	Ticket uint64
	// Node is the responder (the target node for forwarded ops, the
	// coordinator's endpoint for membership ops).
	Node int
	OK   bool
	// Err carries the failure reason when OK is false.
	Err string

	// AdminChecksums: partition checksums, Sums aligned with Parts.
	Parts []int32
	Sums  []uint64

	// AdminFaultStats: injection counters, Vals aligned with Keys.
	Keys []string
	Vals []int64

	// AdminTopologyGet and membership ops: the installed (or just
	// installed) topology version; Members ascending; Masters maps
	// partition → master; ClientAddrs aligned with Members ("" when a
	// member has no front door).
	Version     uint64
	Members     []int32
	Masters     []int32
	ClientAddrs []string

	// AdminStats: the responding node's metric-registry snapshot
	// (metrics.Snapshot.Encode; decode with metrics.DecodeSnapshot). An
	// opaque blob on the wire so the envelope codec stays stable while
	// nodes add metrics.
	Stats []byte
}

// msgTopology installs the coordinator's whole view on a node
// (coordinator → nodes, between fences): a topology version, its member
// set and the failed set under it. No layout travels: every node derives
// it from the member set (topologyFromMsg). It is the one message that
// brings a peer back up in a node's view — phase commands and reverts
// only add failures. It is also sent to a node that just drained OUT of
// the member set, whose install signals Engine.Drained so the process
// can exit cleanly.
type msgTopology struct {
	Version uint64
	Members []int32
	Failed  []int
}

// serveAdmin handles an admin envelope on the node router: local ops
// are answered in place, node-scoped ops for a peer are forwarded
// verbatim (the peer replies straight to From), and membership ops are
// relayed to the coordinator with the submitter's reply address intact.
func (n *node) serveAdmin(req AdminReq) {
	if req.V > AdminProtoVersion {
		n.replyAdmin(req, AdminResp{Err: "admin protocol version unsupported"})
		return
	}
	cfg := n.e.cfg
	switch req.Op {
	case AdminChecksums, AdminFaultStats, AdminStats:
		// Node-scoped: a peer's copy is relayed verbatim (it replies
		// straight to From); Node < 0 or this node's id is served below.
		if req.Node >= cfg.Nodes {
			what := req.Op.String()
			if req.Op == AdminChecksums {
				what = "checksum"
			}
			n.replyAdmin(req, AdminResp{Err: what + " target out of range"})
			return
		}
		if req.Node >= 0 && req.Node != n.id {
			n.e.net.Send(n.id, req.Node, transport.Control, req)
			return
		}
	}
	switch req.Op {
	case AdminFreeze:
		n.e.frozen.Store(req.On)
		if req.Ticket == 0 {
			return // fanned-out copy: apply locally only
		}
		// Front-door origin: one door freezes the cluster. The copies
		// carry Ticket 0 so they cannot fan out again.
		for _, m := range n.view.Load().Members() {
			if m != n.id {
				n.e.net.Send(n.id, m, transport.Control, AdminReq{V: AdminProtoVersion, Op: AdminFreeze, On: req.On})
			}
		}
		n.replyAdmin(req, AdminResp{OK: true})
	case AdminChecksums:
		resp := AdminResp{OK: true}
		topo := n.view.Load()
		for p := 0; p < cfg.NumPartitions(); p++ {
			// Planned holdership, not raw storage residency: an abandoned
			// migration can leave provisionally materialised partitions
			// behind, which are not part of this node's replicated state.
			if !topo.Holds(n.id, p) {
				continue
			}
			resp.Parts = append(resp.Parts, int32(p))
			resp.Sums = append(resp.Sums, n.db.PartitionChecksum(p))
		}
		n.replyAdmin(req, resp)
	case AdminFaultStats:
		resp := AdminResp{OK: true}
		if fi, ok := n.e.net.(faultInjector); ok {
			inj := fi.Injected()
			resp.Keys = slices.Sorted(maps.Keys(inj))
			for _, k := range resp.Keys {
				resp.Vals = append(resp.Vals, inj[k])
			}
		}
		n.replyAdmin(req, resp)
	case AdminStats:
		n.replyAdmin(req, AdminResp{OK: true, Stats: n.e.StatsSnapshot().Encode()})
	case AdminTopologyGet:
		n.replyAdmin(req, n.e.topologyResp(n.view.Load().Topology))
	case AdminJoin, AdminDrain:
		// Membership changes belong to the coordinator; keep From/Ticket
		// so it answers the submitter directly.
		n.e.net.Send(n.id, cfg.coordID(), transport.Control, req)
	default:
		n.replyAdmin(req, AdminResp{Err: "unknown admin op"})
	}
}

// replyAdmin stamps the correlation header and routes the response to
// the requester's endpoint.
func (n *node) replyAdmin(req AdminReq, resp AdminResp) {
	resp.V, resp.Op, resp.Ticket = AdminProtoVersion, req.Op, req.Ticket
	if resp.Node == 0 {
		resp.Node = n.id
	}
	n.e.net.Send(n.id, req.From, transport.Control, resp)
}

// topologyResp renders a layout as an AdminTopologyGet response body.
func (e *Engine) topologyResp(topo *Topology) AdminResp {
	resp := AdminResp{OK: true, Version: topo.Version}
	resp.Masters = append([]int32(nil), topo.Masters...)
	for _, m := range topo.Members() {
		resp.Members = append(resp.Members, int32(m))
		addr := ""
		if m < len(e.cfg.ClientAddrs) {
			addr = e.cfg.ClientAddrs[m]
		}
		resp.ClientAddrs = append(resp.ClientAddrs, addr)
	}
	return resp
}

// installTopology commits the coordinator's view on this node: the
// layout is derived from the member set it names, storage residency
// rebuilds from that layout, and the node's view becomes that
// layout's under the failed set the install names — live mastership,
// replication targets and client routing all follow, and every link that
// comes up restarts its counters (setView). Runs on the router between
// fences (the coordinator sends it only at a committed, quiesced
// boundary). A node that is no longer a member drops every partition and
// signals Engine.Drained.
func (n *node) installTopology(m msgTopology) {
	t := topologyFromMsg(m, n.e.cfg)
	n.setView(newView(t, m.Failed))
	for p := 0; p < t.Partitions; p++ {
		n.db.SetHolds(p, t.Holds(n.id, p))
	}
	if !t.IsMember(n.id) {
		n.e.noteDrained(n.id)
	}
}
