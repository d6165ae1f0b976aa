package netsim

import (
	"net/netip"
	"testing"
	"time"
	"unsafe"

	"remotepeering/internal/packet"
	"remotepeering/internal/stats"
)

// checkPool fails if a buffer sits on the engine's free list twice — a
// double release, which would hand one buffer to two frames.
func checkPool(t *testing.T, e *Engine) {
	t.Helper()
	seen := make(map[*byte]bool, len(e.bufs))
	for _, b := range e.bufs {
		p := unsafe.SliceData(b)
		if seen[p] {
			t.Fatal("frame buffer released twice")
		}
		seen[p] = true
	}
}

// TestPingSteadyStateAllocs bounds the allocations of one LAN ping round
// trip on a warmed engine — request, fabric delivery, echo reply, reply
// delivery, timeout — with jitter, loss and processing-delay draws on.
// Events, frames and ping state all come from recycled slots, so the
// round trip allocates nothing once the free lists and the RNG states
// have warmed up (measured: 0 allocs per round trip).
func TestPingSteadyStateAllocs(t *testing.T) {
	var e Engine
	src := stats.NewSource(11)
	f, lg, member := buildLAN(t, &e, 5*time.Microsecond, DefaultOS)
	f.Noise = NewNoiseModel(src.Split("noise"), 50*time.Microsecond, time.Millisecond)
	member.procSrc = src.Split("proc")
	member.lossSrc = src.Split("loss")
	member.DropProb = 0.03
	target := ip("195.69.144.10")
	replies := 0
	cb := func(r PingResult) {
		if !r.TimedOut {
			replies++
		}
	}
	round := func() {
		lg.Ping(target, time.Second, cb)
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
	}
	// Warm up past every source's 273rd draw, when it takes its own state.
	for i := 0; i < 1000; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(500, round); allocs > 0 {
		t.Errorf("LAN ping round trip allocates %.0f objects, want 0", allocs)
	}
	if replies < 1400 {
		t.Errorf("only %d of 1501 pings answered", replies)
	}
	checkPool(t, &e)
}

// TestBroadcastCopiesSurviveRecycling sends one broadcast echo reply to
// several hosts that each hold a pending ping, and has every host reuse
// the frame pool from inside its reply handler. Each receiver owns its
// own copy, so every host must still see the intact reply.
func TestBroadcastCopiesSurviveRecycling(t *testing.T) {
	var e Engine
	f := NewFabric(&e, "lan")
	f.SwitchLatency = 10 * time.Microsecond
	sender := NewNode(&e, "sender", OSProfile{InitTTL: 64}, false, nil)
	sIf := sender.AddIface("eth0", pfx("10.0.0.1/24"))
	f.Attach(sIf, time.Microsecond)

	anycast := ip("10.0.1.1")
	unresolvable := ip("10.0.0.250")
	const hosts = 6
	type seen struct {
		from netip.Addr
		seq  uint16
		ttl  uint8
	}
	got := make([][]seen, hosts)
	for i := 0; i < hosts; i++ {
		i := i
		h := NewNode(&e, "host", OSProfile{InitTTL: 64}, false, nil)
		hIf := h.AddIface("eth0", netip.PrefixFrom(netip.AddrFrom4([4]byte{10, 0, 0, byte(10 + i)}), 24))
		h.AddIface("lo", netip.PrefixFrom(anycast, 32))
		// Equal access delays for half the hosts: several copies land at
		// the same instant.
		f.Attach(hIf, time.Duration(1+i/2)*time.Microsecond)
		// The pending ping (ident 1) the broadcast reply resolves; its
		// own request is lost to an unanswered ARP.
		h.Ping(unresolvable, time.Hour, func(r PingResult) {
			if r.TimedOut {
				return
			}
			got[i] = append(got[i], seen{r.From, r.Seq, r.TTL})
			// Reuse the pool while the other copies are in flight.
			h.Ping(unresolvable, time.Millisecond, func(PingResult) {})
		})
	}

	payload := []byte("every receiver must see these exact bytes")
	frame, err := packet.EchoReplyFrame(sIf.MAC, packet.BroadcastMAC, sIf.Addr(), anycast, 77, 1, 9, payload)
	if err != nil {
		t.Fatal(err)
	}
	e.Schedule(time.Millisecond, func() {
		f.send(sIf, append(e.getBuf(0), frame...))
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, g := range got {
		if len(g) != 1 || g[0] != (seen{sIf.Addr(), 9, 77}) {
			t.Errorf("host %d saw %+v, want one reply from %v seq 9 TTL 77", i, g, sIf.Addr())
		}
	}
	checkPool(t, &e)
}

// TestForwardedProbesSurviveRecycling keeps many probes in flight through
// a proxy-ARP edge router, which forwards each one with a TTL decrement,
// alongside direct pings that churn the frame pool. A forwarded packet
// is rewritten in its own buffer, so every probe must come back intact:
// TTL 63 through the router, 64 direct, never a timeout.
func TestForwardedProbesSurviveRecycling(t *testing.T) {
	var e Engine
	f := NewFabric(&e, "ixp-lan")
	f.SwitchLatency = 10 * time.Microsecond

	lg := NewNode(&e, "lg", OSProfile{InitTTL: 64}, false, nil)
	lgIf := lg.AddIface("eth0", pfx("195.69.144.1/21"))
	f.Attach(lgIf, 5*time.Microsecond)

	direct := NewNode(&e, "direct", OSProfile{InitTTL: 64}, true, nil)
	f.Attach(direct.AddIface("lan", pfx("195.69.144.10/21")), 7*time.Microsecond)

	edge := NewNode(&e, "edge", DefaultOS, true, nil)
	att := f.Attach(edge.AddIface("lan", pfx("195.69.144.50/21")), 5*time.Microsecond)
	att.Proxy = []netip.Prefix{pfx("195.69.144.77/32")}
	far := NewNode(&e, "far", OSProfile{InitTTL: 64}, true, nil)
	farIf := far.AddIface("wan", pfx("10.0.0.2/30"))
	far.AddIface("lo", pfx("195.69.144.77/32"))
	edgeWAN := edge.AddIface("wan", pfx("10.0.0.1/30"))
	Connect(&e, "backhaul", edgeWAN, farIf, 2*time.Millisecond)
	edge.AddRoute(pfx("195.69.144.77/32"), ip("10.0.0.2"), edgeWAN)
	far.AddRoute(pfx("0.0.0.0/0"), ip("10.0.0.1"), farIf)

	const probes = 200
	wantTTL := map[netip.Addr]uint8{ip("195.69.144.77"): 63, ip("195.69.144.10"): 64}
	answered := 0
	for i := 0; i < probes; i++ {
		dst := ip("195.69.144.77")
		if i%2 == 1 {
			dst = ip("195.69.144.10")
		}
		lg.PingAt(time.Duration(i)*20*time.Microsecond, dst, time.Second, func(r PingResult) {
			switch {
			case r.TimedOut:
				t.Errorf("probe to %v sent at %v timed out", r.Target, r.SentAt)
			case r.From != r.Target || r.TTL != wantTTL[r.Target]:
				t.Errorf("probe to %v: reply from %v TTL %d, want TTL %d", r.Target, r.From, r.TTL, wantTTL[r.Target])
			default:
				answered++
			}
		})
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if answered != probes {
		t.Errorf("%d of %d probes answered intact", answered, probes)
	}
	checkPool(t, &e)
}
