package netsim

import (
	"net/netip"
	"time"

	"remotepeering/internal/packet"
)

// Hop is one step of a traceroute: the router (or destination) that
// answered the probe for a given TTL.
type Hop struct {
	TTL      int
	From     netip.Addr
	RTT      time.Duration
	Reached  bool // true when the hop is the destination's echo reply
	TimedOut bool
}

// TracerouteResult is the completed path discovery.
type TracerouteResult struct {
	Target netip.Addr
	Hops   []Hop
	// Reached reports whether the destination answered.
	Reached bool
}

// HopCount returns the number of responding IP hops to the destination, or
// -1 when it was never reached. A count of 1 means the target is on-link —
// which is what every IXP member looks like from an LG server, remote or
// not: the remote-peering provider's layer-2 pseudowire is invisible to
// layer-3 path discovery. This is the paper's core observation, executable.
func (r TracerouteResult) HopCount() int {
	if !r.Reached {
		return -1
	}
	return len(r.Hops)
}

type traceState struct {
	target   netip.Addr
	maxHops  int
	perHop   time.Duration
	hops     []Hop
	cb       func(TracerouteResult)
	finished bool
}

// Traceroute discovers the IP path from the node to dst by sending echo
// requests with increasing TTLs and collecting the time-exceeded answers,
// like the traceroute tool the paper contrasts its methodology against.
// cb fires once with the full result.
func (n *Node) Traceroute(dst netip.Addr, maxHops int, perHopTimeout time.Duration, cb func(TracerouteResult)) {
	if maxHops <= 0 {
		maxHops = 30
	}
	st := &traceState{target: dst, maxHops: maxHops, perHop: perHopTimeout, cb: cb}
	n.traceStep(st, 1)
}

// traceStep launches the probe for one TTL.
func (n *Node) traceStep(st *traceState, ttl int) {
	if st.finished {
		return
	}
	if ttl > st.maxHops {
		st.finish(false)
		return
	}
	n.nextIdent++
	ident := n.nextIdent
	sentAt := n.engine.Now()
	answered := false

	n.pendingTrace(ident, func(from netip.Addr, reached bool) {
		if answered || st.finished {
			return
		}
		answered = true
		st.hops = append(st.hops, Hop{
			TTL:     ttl,
			From:    from,
			RTT:     n.engine.Now() - sentAt,
			Reached: reached,
		})
		if reached {
			st.finish(true)
			return
		}
		n.traceStep(st, ttl+1)
	})

	req := packet.ICMPEcho{Type: packet.ICMPEchoRequest, IDent: ident, Seq: uint16(ttl)}
	srcAddr := n.sourceAddrFor(st.target)
	ip := packet.IPv4{TTL: uint8(ttl), Protocol: packet.ProtoICMP, Src: srcAddr, Dst: st.target}
	if srcAddr.IsValid() {
		if frame := n.sealIP(&ip, req.AppendTo(n.ipFrame())); frame != nil {
			n.sendIP(frame)
		}
	}

	n.engine.After(st.perHop, func() {
		if answered || st.finished {
			return
		}
		answered = true
		st.hops = append(st.hops, Hop{TTL: ttl, TimedOut: true})
		n.traceStep(st, ttl+1)
	})
}

func (st *traceState) finish(reached bool) {
	if st.finished {
		return
	}
	st.finished = true
	st.cb(TracerouteResult{Target: st.target, Hops: st.hops, Reached: reached})
}

// pendingTrace registers a callback keyed on the probe ident; both echo
// replies (destination reached) and ICMP errors (intermediate router)
// resolve it.
func (n *Node) pendingTrace(ident uint16, cb func(from netip.Addr, reached bool)) {
	if n.traces == nil {
		n.traces = make(map[uint16]func(netip.Addr, bool))
	}
	n.traces[ident] = cb
}

// handleICMPError resolves traceroute probes whose TTL expired en route.
func (n *Node) handleICMPError(hdr packet.IPv4, msg packet.ICMPError) {
	if msg.Type != packet.ICMPTimeExceed {
		return
	}
	_, ident, _, err := msg.InnerEcho()
	if err != nil {
		return
	}
	if cb, ok := n.traces[ident]; ok {
		delete(n.traces, ident)
		cb(hdr.Src, false)
	}
}

// resolveTraceEcho lets an echo reply complete a traceroute probe (the
// destination hop).
func (n *Node) resolveTraceEcho(hdr packet.IPv4, msg packet.ICMPEcho) bool {
	if cb, ok := n.traces[msg.IDent]; ok {
		delete(n.traces, msg.IDent)
		cb(hdr.Src, true)
		return true
	}
	return false
}
