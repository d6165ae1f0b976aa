package netsim

import (
	"net/netip"
	"time"

	"remotepeering/internal/packet"
)

// PingResult is the outcome of a single echo request: either a reply with
// its RTT and the TTL observed at the prober — the two observables the
// paper's methodology is built on — or a timeout.
type PingResult struct {
	Target   netip.Addr
	From     netip.Addr // source address of the reply (usually == Target)
	Seq      uint16
	RTT      time.Duration
	TTL      uint8 // TTL as received by the prober
	TimedOut bool
	SentAt   time.Duration // simulation time the request left the prober
}

type pingState struct {
	target netip.Addr
	sentAt time.Duration
	ident  uint16
	seq    uint16
	cb     func(PingResult)
	done   bool
}

// Ping sends an ICMP echo request from the node to dst and invokes cb
// exactly once: with the reply, or with TimedOut set after timeout.
// The request is routed through the node's normal IP stack, so a probe
// launched by an LG server into its IXP LAN stays on the fabric — the
// paper's "adherence to straight routes" precondition.
func (n *Node) Ping(dst netip.Addr, timeout time.Duration, cb func(PingResult)) {
	n.nextIdent++
	ident := n.nextIdent
	slot := n.newPing()
	n.pings[slot] = pingState{
		target: dst,
		sentAt: n.engine.Now(),
		ident:  ident,
		seq:    1,
		cb:     cb,
	}
	n.pending[ident] = slot

	if srcAddr := n.sourceAddrFor(dst); srcAddr.IsValid() {
		req := packet.ICMPEcho{Type: packet.ICMPEchoRequest, IDent: ident, Seq: 1}
		ip := packet.IPv4{
			TTL:      n.os.InitTTL,
			Protocol: packet.ProtoICMP,
			Src:      srcAddr,
			Dst:      dst,
		}
		if frame := n.sealIP(&ip, req.AppendTo(n.ipFrame())); frame != nil {
			n.sendIP(frame)
		}
	}

	p := n.engine.schedule(n.engine.now+timeout, evPingTimeout)
	p.node = n
	p.ping = slot
}

// PingAt schedules Ping(dst, timeout, cb) to run at the absolute
// simulation time at. It is Schedule with a Ping inside, without a
// closure per probe: campaigns queue every probe up front.
func (n *Node) PingAt(at time.Duration, dst netip.Addr, timeout time.Duration, cb func(PingResult)) {
	p := n.engine.schedule(at, evPing)
	p.node = n
	p.dst = dst
	p.timeout = timeout
	p.cb = cb
}

// newPing returns a free slot in the node's ping table.
func (n *Node) newPing() int32 {
	if k := len(n.freePings); k > 0 {
		slot := n.freePings[k-1]
		n.freePings = n.freePings[:k-1]
		return slot
	}
	n.pings = append(n.pings, pingState{})
	return int32(len(n.pings) - 1)
}

// pingTimeout fires a ping's deadline: it reports the timeout unless the
// reply came first, and frees the ping's slot either way (the deadline
// is the last event referring to it).
func (n *Node) pingTimeout(slot int32) {
	st := n.pings[slot]
	n.pings[slot] = pingState{}
	n.freePings = append(n.freePings, slot)
	if st.done {
		return
	}
	delete(n.pending, st.ident)
	st.cb(PingResult{
		Target:   st.target,
		Seq:      st.seq,
		TimedOut: true,
		SentAt:   st.sentAt,
	})
}

// sourceAddrFor picks the source address for traffic to dst: the address of
// the output interface chosen by routing.
func (n *Node) sourceAddrFor(dst netip.Addr) netip.Addr {
	out, _, ok := n.lookupRoute(dst)
	if !ok || out == nil {
		return netip.Addr{}
	}
	return out.Addr()
}

// handleEchoReply completes a pending ping or traceroute probe. Replies
// for unknown idents (late duplicates after timeout) are dropped.
func (n *Node) handleEchoReply(hdr packet.IPv4, msg packet.ICMPEcho) {
	if n.resolveTraceEcho(hdr, msg) {
		return
	}
	slot, ok := n.pending[msg.IDent]
	if !ok || n.pings[slot].done {
		return
	}
	st := &n.pings[slot]
	st.done = true
	delete(n.pending, msg.IDent)
	st.cb(PingResult{
		Target: st.target,
		From:   hdr.Src,
		Seq:    msg.Seq,
		RTT:    n.engine.Now() - st.sentAt,
		TTL:    hdr.TTL,
		SentAt: st.sentAt,
	})
}
