package netsim

import (
	"net/netip"
	"sort"
	"sync/atomic"
	"time"

	"remotepeering/internal/packet"
	"remotepeering/internal/stats"
)

// OSProfile captures the ping-relevant behaviour of a device's operating
// system. The paper's TTL-match filter accepts the two typical initial TTL
// values (64 and 255) and notes that 32 and 128 occur but are infrequent;
// the TTL-switch filter discards interfaces whose initial TTL changes
// during the campaign ("likely due to operating system changes").
type OSProfile struct {
	InitTTL uint8
	// ProcMean is the mean ICMP processing delay (exponentially
	// distributed). Zero means 150 µs.
	ProcMean time.Duration
}

// DefaultOS is a typical router profile.
var DefaultOS = OSProfile{InitTTL: 255, ProcMean: 150 * time.Microsecond}

// Node is a device with an IP stack: a member router, an LG server host, or
// a backbone router. Forwarding nodes route transit packets and decrement
// TTL; non-forwarding nodes (hosts) only terminate traffic.
type Node struct {
	Name       string
	Forwarding bool

	engine *Engine
	os     OSProfile
	ifaces []*Iface
	routes []route

	// Blackhole suppresses ICMP echo responses entirely (the paper's
	// "impact of blackholing" hazard).
	Blackhole bool
	// DropProb is the probability that any single echo request is ignored
	// (flaky responders / ICMP rate limiting). Requires a loss source.
	DropProb float64

	lossSrc *stats.Source
	procSrc *stats.Source

	nextIdent uint16
	// pending maps an outstanding ping's ident to its slot in pings;
	// freePings lists the slots whose timeout has fired.
	pending   map[uint16]int32
	pings     []pingState
	freePings []int32
	traces    map[uint16]func(netip.Addr, bool)
}

type route struct {
	prefix  netip.Prefix
	nextHop netip.Addr // zero Addr = directly connected (on-link)
	out     *Iface
}

// NewNode creates a node bound to the engine. src seeds the node's
// processing-delay and loss randomness; it may be nil for a fully
// deterministic node.
func NewNode(e *Engine, name string, os OSProfile, forwarding bool, src *stats.Source) *Node {
	n := &Node{
		Name:       name,
		Forwarding: forwarding,
		engine:     e,
		os:         os,
		pending:    make(map[uint16]int32),
	}
	if src != nil {
		n.lossSrc = src.Split("loss")
		n.procSrc = src.Split("proc")
	}
	return n
}

// SetInitTTL changes the OS initial TTL (the TTL-switch hazard); callers
// schedule this mid-campaign via the engine.
func (n *Node) SetInitTTL(ttl uint8) { n.os.InitTTL = ttl }

// InitTTL returns the current OS initial TTL.
func (n *Node) InitTTL() uint8 { return n.os.InitTTL }

// Iface is a network interface on a node.
type Iface struct {
	Node  *Node
	Name  string
	MAC   packet.MAC
	addrs []netip.Prefix

	fabric     *Fabric
	attachment *Attachment
	link       *Link
}

// macCounter is atomic because independent engines (one per simulated IXP
// in a parallel campaign) build nodes concurrently. MAC values only need
// global uniqueness — fabrics key attachments by MAC but never order by it
// — so assignment order is free to vary across runs and worker counts.
var macCounter atomic.Uint64

// AddIface creates an interface with the given addresses (each address
// carries its on-link prefix).
func (n *Node) AddIface(name string, addrs ...netip.Prefix) *Iface {
	iface := &Iface{
		Node:  n,
		Name:  n.Name + "/" + name,
		MAC:   packet.MACFromUint64(macCounter.Add(1)),
		addrs: addrs,
	}
	n.ifaces = append(n.ifaces, iface)
	return iface
}

// Ifaces returns the node's interfaces.
func (n *Node) Ifaces() []*Iface { return n.ifaces }

// Addrs returns the interface's address list.
func (i *Iface) Addrs() []netip.Prefix { return i.addrs }

// Addr returns the interface's first address, or the zero Addr.
func (i *Iface) Addr() netip.Addr {
	if len(i.addrs) == 0 {
		return netip.Addr{}
	}
	return i.addrs[0].Addr()
}

// Owns reports whether ip is one of the interface's addresses.
func (i *Iface) Owns(ip netip.Addr) bool {
	for _, p := range i.addrs {
		if p.Addr() == ip {
			return true
		}
	}
	return false
}

// OwnsIP reports whether ip is assigned to any interface of the node.
func (n *Node) OwnsIP(ip netip.Addr) bool {
	for _, iface := range n.ifaces {
		if iface.Owns(ip) {
			return true
		}
	}
	return false
}

// AddRoute installs a static route. A zero nextHop means on-link delivery
// through out.
func (n *Node) AddRoute(prefix netip.Prefix, nextHop netip.Addr, out *Iface) {
	n.routes = append(n.routes, route{prefix: prefix, nextHop: nextHop, out: out})
	// Keep longest prefixes first so lookup is a simple scan.
	sort.SliceStable(n.routes, func(a, b int) bool {
		return n.routes[a].prefix.Bits() > n.routes[b].prefix.Bits()
	})
}

// lookupRoute picks the forwarding decision for dst: connected prefixes
// win over static routes of equal or shorter length.
func (n *Node) lookupRoute(dst netip.Addr) (out *Iface, nextHop netip.Addr, ok bool) {
	bestBits := -1
	for _, iface := range n.ifaces {
		for _, p := range iface.addrs {
			if p.Contains(dst) && p.Bits() > bestBits {
				bestBits = p.Bits()
				out, nextHop, ok = iface, dst, true
			}
		}
	}
	for _, r := range n.routes {
		if r.prefix.Contains(dst) && r.prefix.Bits() > bestBits {
			bestBits = r.prefix.Bits()
			out, ok = r.out, true
			if r.nextHop.IsValid() {
				nextHop = r.nextHop
			} else {
				nextHop = dst
			}
		}
	}
	return out, nextHop, ok
}

// ipOffset is where the IPv4 packet starts in a frame buffer: the
// Ethernet header's headroom in front of it is filled in by transmit.
const ipOffset = packet.EthernetHeaderLen

// ipFrame returns a recycled frame buffer holding headroom for the
// Ethernet and IPv4 headers; the caller appends the IP payload and seals
// it with sealIP.
func (n *Node) ipFrame() []byte {
	return n.engine.getBuf(ipOffset + packet.IPv4HeaderLen)
}

// sealIP writes ip's header in front of the payload appended to frame.
// When the header cannot be encoded it releases frame and returns nil.
func (n *Node) sealIP(ip *packet.IPv4, frame []byte) []byte {
	if err := ip.MarshalTo(frame[ipOffset:]); err != nil {
		n.engine.putBuf(frame)
		return nil
	}
	return frame
}

// sendIP routes and transmits an IPv4 packet originated or forwarded by
// this node. frame holds the packet at ipOffset and is owned by the
// call: it is handed to the medium or released.
func (n *Node) sendIP(frame []byte) {
	hdr, _, err := packet.UnmarshalIPv4(frame[ipOffset:])
	if err != nil {
		n.engine.putBuf(frame)
		return
	}
	out, nextHop, ok := n.lookupRoute(hdr.Dst)
	if !ok {
		n.engine.putBuf(frame)
		return // no route: silently dropped
	}
	n.transmit(out, nextHop, frame)
}

// transmit resolves the next hop on the output medium, writes the
// Ethernet header into frame's headroom and sends it.
func (n *Node) transmit(out *Iface, nextHop netip.Addr, frame []byte) {
	switch {
	case out.fabric != nil:
		dstMAC, ok := out.fabric.ResolveMAC(nextHop)
		if !ok {
			n.engine.putBuf(frame)
			return // unanswered ARP
		}
		eth := packet.Ethernet{Dst: dstMAC, Src: out.MAC, Type: packet.EtherTypeIPv4}
		eth.MarshalTo(frame)
		out.fabric.send(out, frame)
	case out.link != nil:
		peer := out.link.Peer(out)
		if peer == nil {
			n.engine.putBuf(frame)
			return
		}
		eth := packet.Ethernet{Dst: peer.MAC, Src: out.MAC, Type: packet.EtherTypeIPv4}
		eth.MarshalTo(frame)
		out.link.send(out, frame)
	default:
		n.engine.putBuf(frame)
	}
}

// receive handles a frame arriving at the interface.
func (i *Iface) receive(frame []byte) {
	eth, payload, err := packet.UnmarshalEthernet(frame)
	if err != nil {
		return
	}
	if eth.Dst != i.MAC && !eth.Dst.IsBroadcast() {
		return
	}
	if eth.Type != packet.EtherTypeIPv4 {
		return
	}
	i.Node.receiveIP(i, payload)
}

// receiveIP processes an IPv4 packet delivered to one of the node's
// interfaces: local delivery if we own the destination, forwarding with a
// TTL decrement otherwise.
func (n *Node) receiveIP(in *Iface, ipPkt []byte) {
	hdr, body, err := packet.UnmarshalIPv4(ipPkt)
	if err != nil {
		return
	}
	if n.OwnsIP(hdr.Dst) {
		n.deliverLocal(hdr, body)
		return
	}
	if !n.Forwarding {
		return
	}
	// Forwarding path: the TTL decrement here is what the paper's
	// TTL-match filter detects when a probe or reply strays off the IXP
	// subnet onto a routed path. The rewrite happens on the forwarded
	// packet's own buffer: the received frame is released when this
	// handler returns.
	switch hdr.TTL {
	case 0:
		return // expired upstream; nothing to decrement
	case 1:
		n.sendTimeExceeded(in, hdr, ipPkt)
		return
	}
	fwd := append(n.engine.getBuf(ipOffset), ipPkt...)
	packet.DecrementTTL(fwd[ipOffset:])
	n.sendIP(fwd)
}

// sendTimeExceeded answers an expired packet with ICMP time exceeded, as a
// router on a routed path would — the mechanism traceroute exploits. The
// error quotes the offending IP header plus its first 8 payload bytes
// (RFC 792).
func (n *Node) sendTimeExceeded(in *Iface, hdr packet.IPv4, orig []byte) {
	if n.Blackhole {
		return
	}
	quote := orig
	if len(quote) > 28 { // IP header + 8 bytes
		quote = quote[:28]
	}
	msg := packet.ICMPError{Type: packet.ICMPTimeExceed, Original: quote}
	src := in.Addr()
	if !src.IsValid() {
		return
	}
	ip := packet.IPv4{TTL: n.os.InitTTL, Protocol: packet.ProtoICMP, Src: src, Dst: hdr.Src}
	if frame := n.sealIP(&ip, msg.AppendTo(n.ipFrame())); frame != nil {
		n.sendAfter(n.procDelay(), frame)
	}
}

// sendAfter schedules sendIP(frame) after delay d; the event owns frame
// until then.
func (n *Node) sendAfter(d time.Duration, frame []byte) {
	p := n.engine.schedule(n.engine.now+d, evSendIP)
	p.node = n
	p.frame = frame
}

// deliverLocal handles packets addressed to this node.
func (n *Node) deliverLocal(hdr packet.IPv4, body []byte) {
	if hdr.Protocol != packet.ProtoICMP {
		return
	}
	if msg, err := packet.UnmarshalICMPEcho(body); err == nil {
		switch msg.Type {
		case packet.ICMPEchoRequest:
			n.handleEchoRequest(hdr, msg)
		case packet.ICMPEchoReply:
			n.handleEchoReply(hdr, msg)
		}
		return
	}
	if errMsg, err := packet.UnmarshalICMPError(body); err == nil {
		n.handleICMPError(hdr, errMsg)
	}
}

// handleEchoRequest answers a ping unless blackholed or dropped. The reply
// is sourced from the pinged address with the node's current initial TTL
// and is routed like any other packet — so if the return path crosses a
// router, the observer sees a decremented TTL.
func (n *Node) handleEchoRequest(hdr packet.IPv4, msg packet.ICMPEcho) {
	if n.Blackhole {
		return
	}
	if n.DropProb > 0 && n.lossSrc != nil && n.lossSrc.Float64() < n.DropProb {
		return
	}
	// AppendTo copies the echoed payload out of the received frame.
	reply := packet.ICMPEcho{
		Type:    packet.ICMPEchoReply,
		IDent:   msg.IDent,
		Seq:     msg.Seq,
		Payload: msg.Payload,
	}
	ip := packet.IPv4{
		TTL:      n.os.InitTTL,
		Protocol: packet.ProtoICMP,
		Src:      hdr.Dst,
		Dst:      hdr.Src,
	}
	if frame := n.sealIP(&ip, reply.AppendTo(n.ipFrame())); frame != nil {
		n.sendAfter(n.procDelay(), frame)
	}
}

// procDelay samples the ICMP processing delay.
func (n *Node) procDelay() time.Duration {
	mean := n.os.ProcMean
	if mean == 0 {
		mean = 150 * time.Microsecond
	}
	if n.procSrc == nil {
		return mean
	}
	return time.Duration(n.procSrc.ExpFloat64() * float64(mean))
}
