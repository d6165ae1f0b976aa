package packet

import (
	"bytes"
	"net/netip"
	"testing"
	"testing/quick"
)

func addr(s string) netip.Addr { return netip.MustParseAddr(s) }

func TestEthernetRoundTrip(t *testing.T) {
	e := Ethernet{
		Dst:  MAC{0x02, 1, 2, 3, 4, 5},
		Src:  MAC{0x02, 9, 8, 7, 6, 5},
		Type: EtherTypeIPv4,
	}
	payload := []byte("hello")
	frame := e.Marshal(payload)
	got, body, err := UnmarshalEthernet(frame)
	if err != nil {
		t.Fatal(err)
	}
	if got != e {
		t.Errorf("header mismatch: %+v vs %+v", got, e)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("payload mismatch: %q", body)
	}
}

func TestEthernetTruncated(t *testing.T) {
	if _, _, err := UnmarshalEthernet(make([]byte, 13)); err == nil {
		t.Error("want truncation error")
	}
}

func TestMACString(t *testing.T) {
	m := MAC{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01}
	if m.String() != "de:ad:be:ef:00:01" {
		t.Errorf("String = %q", m.String())
	}
}

func TestBroadcastMAC(t *testing.T) {
	if !BroadcastMAC.IsBroadcast() {
		t.Error("BroadcastMAC must report broadcast")
	}
	if (MAC{}).IsBroadcast() {
		t.Error("zero MAC is not broadcast")
	}
}

func TestMACFromUint64Unique(t *testing.T) {
	seen := map[MAC]bool{}
	for v := uint64(0); v < 1000; v++ {
		m := MACFromUint64(v)
		if seen[m] {
			t.Fatalf("duplicate MAC for %d", v)
		}
		seen[m] = true
		if m[0] != 0x02 {
			t.Fatalf("MAC not locally administered: %v", m)
		}
	}
}

func TestIPv4RoundTrip(t *testing.T) {
	h := IPv4{
		TOS:      0x10,
		ID:       0xbeef,
		Flags:    0x2, // DF
		FragOff:  0,
		TTL:      64,
		Protocol: ProtoICMP,
		Src:      addr("10.0.0.1"),
		Dst:      addr("192.0.2.7"),
	}
	payload := []byte{1, 2, 3, 4, 5}
	pkt, err := h.Marshal(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, body, err := UnmarshalIPv4(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if got != h {
		t.Errorf("header mismatch:\n got %+v\nwant %+v", got, h)
	}
	if !bytes.Equal(body, payload) {
		t.Errorf("payload mismatch: %v", body)
	}
}

func TestIPv4ChecksumDetectsCorruption(t *testing.T) {
	h := IPv4{TTL: 64, Protocol: ProtoICMP, Src: addr("10.0.0.1"), Dst: addr("10.0.0.2")}
	pkt, err := h.Marshal(nil)
	if err != nil {
		t.Fatal(err)
	}
	pkt[8] ^= 0xff // corrupt TTL without fixing the checksum
	if _, _, err := UnmarshalIPv4(pkt); err == nil {
		t.Error("want checksum error after corruption")
	}
}

func TestIPv4RejectsNonV4(t *testing.T) {
	h := IPv4{TTL: 1, Protocol: ProtoICMP, Src: netip.MustParseAddr("::1"), Dst: addr("10.0.0.2")}
	if _, err := h.Marshal(nil); err == nil {
		t.Error("want error for IPv6 source")
	}
	pkt, _ := (&IPv4{TTL: 1, Protocol: ProtoICMP, Src: addr("1.1.1.1"), Dst: addr("2.2.2.2")}).Marshal(nil)
	pkt[0] = 0x65 // version 6
	if _, _, err := UnmarshalIPv4(pkt); err == nil {
		t.Error("want version error")
	}
}

func TestIPv4Truncated(t *testing.T) {
	if _, _, err := UnmarshalIPv4(make([]byte, 19)); err == nil {
		t.Error("want truncation error")
	}
}

func TestIPv4TotalLengthBounds(t *testing.T) {
	h := IPv4{TTL: 64, Protocol: ProtoUDP, Src: addr("1.1.1.1"), Dst: addr("2.2.2.2")}
	if _, err := h.Marshal(make([]byte, 70000)); err == nil {
		t.Error("want error for oversized payload")
	}
}

func TestDecrementTTL(t *testing.T) {
	h := IPv4{TTL: 64, Protocol: ProtoICMP, Src: addr("10.0.0.1"), Dst: addr("10.0.0.2")}
	pkt, err := h.Marshal([]byte("x"))
	if err != nil {
		t.Fatal(err)
	}
	ttl, err := DecrementTTL(pkt)
	if err != nil {
		t.Fatal(err)
	}
	if ttl != 63 {
		t.Errorf("ttl = %d, want 63", ttl)
	}
	// The packet must still parse: checksum was fixed up.
	got, _, err := UnmarshalIPv4(pkt)
	if err != nil {
		t.Fatalf("after decrement: %v", err)
	}
	if got.TTL != 63 {
		t.Errorf("parsed TTL = %d", got.TTL)
	}
}

func TestDecrementTTLAtZero(t *testing.T) {
	h := IPv4{TTL: 0, Protocol: ProtoICMP, Src: addr("10.0.0.1"), Dst: addr("10.0.0.2")}
	pkt, _ := h.Marshal(nil)
	if _, err := DecrementTTL(pkt); err == nil {
		t.Error("want error at TTL 0")
	}
	if _, err := DecrementTTL(make([]byte, 10)); err == nil {
		t.Error("want truncation error")
	}
}

func TestDecrementTTLChainPreservesValidity(t *testing.T) {
	// Property: after k decrements the packet still parses and TTL = 64-k.
	h := IPv4{TTL: 64, Protocol: ProtoICMP, Src: addr("10.9.9.9"), Dst: addr("10.1.1.1")}
	pkt, _ := h.Marshal([]byte("payload"))
	for k := 1; k <= 63; k++ {
		if _, err := DecrementTTL(pkt); err != nil {
			t.Fatalf("decrement %d: %v", k, err)
		}
		got, _, err := UnmarshalIPv4(pkt)
		if err != nil {
			t.Fatalf("parse after %d decrements: %v", k, err)
		}
		if int(got.TTL) != 64-k {
			t.Fatalf("TTL after %d decrements = %d", k, got.TTL)
		}
	}
}

func TestICMPEchoRoundTrip(t *testing.T) {
	m := ICMPEcho{Type: ICMPEchoRequest, IDent: 77, Seq: 3, Payload: []byte("ping!")}
	b := m.Marshal()
	got, err := UnmarshalICMPEcho(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Type != m.Type || got.IDent != m.IDent || got.Seq != m.Seq {
		t.Errorf("header mismatch: %+v", got)
	}
	if !bytes.Equal(got.Payload, m.Payload) {
		t.Errorf("payload mismatch: %q", got.Payload)
	}
}

func TestICMPChecksumDetectsCorruption(t *testing.T) {
	m := ICMPEcho{Type: ICMPEchoReply, IDent: 1, Seq: 1}
	b := m.Marshal()
	b[6] ^= 0x01
	if _, err := UnmarshalICMPEcho(b); err == nil {
		t.Error("want checksum error")
	}
}

func TestICMPRejectsNonEcho(t *testing.T) {
	m := ICMPEcho{Type: ICMPEchoRequest, IDent: 5, Seq: 9}
	b := m.Marshal()
	// Rewrite type to time-exceeded and fix the checksum by remarshalling.
	b[0] = uint8(ICMPTimeExceed)
	b[2], b[3] = 0, 0
	cs := checksum(b)
	b[2], b[3] = byte(cs>>8), byte(cs)
	if _, err := UnmarshalICMPEcho(b); err == nil {
		t.Error("want type error for non-echo ICMP")
	}
	if _, err := UnmarshalICMPEcho(make([]byte, 4)); err == nil {
		t.Error("want truncation error")
	}
}

func TestICMPEchoRoundTripProperty(t *testing.T) {
	f := func(ident, seq uint16, payload []byte) bool {
		if len(payload) > 1400 {
			payload = payload[:1400]
		}
		m := ICMPEcho{Type: ICMPEchoRequest, IDent: ident, Seq: seq, Payload: payload}
		got, err := UnmarshalICMPEcho(m.Marshal())
		if err != nil {
			return false
		}
		return got.IDent == ident && got.Seq == seq && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestChecksumRFC1071Examples(t *testing.T) {
	// Odd-length buffers must be padded with a zero byte on the right.
	odd := []byte{0x01}
	if got := checksum(odd); got != ^uint16(0x0100) {
		t.Errorf("odd checksum = %#x", got)
	}
	// All-zero buffer checksums to 0xffff.
	if got := checksum(make([]byte, 8)); got != 0xffff {
		t.Errorf("zero checksum = %#x", got)
	}
}

func TestEchoRequestReplyFrames(t *testing.T) {
	src, dst := addr("195.69.144.10"), addr("195.69.144.20")
	frame, err := EchoRequestFrame(MACFromUint64(1), MACFromUint64(2), src, dst, 64, 42, 7, []byte("probe"))
	if err != nil {
		t.Fatal(err)
	}
	eth, ipPkt, err := UnmarshalEthernet(frame)
	if err != nil {
		t.Fatal(err)
	}
	if eth.Type != EtherTypeIPv4 {
		t.Errorf("ethertype %#x", eth.Type)
	}
	ip, body, err := UnmarshalIPv4(ipPkt)
	if err != nil {
		t.Fatal(err)
	}
	if ip.Src != src || ip.Dst != dst || ip.TTL != 64 || ip.Protocol != ProtoICMP {
		t.Errorf("ip header %+v", ip)
	}
	icmp, err := UnmarshalICMPEcho(body)
	if err != nil {
		t.Fatal(err)
	}
	if icmp.Type != ICMPEchoRequest || icmp.IDent != 42 || icmp.Seq != 7 {
		t.Errorf("icmp %+v", icmp)
	}

	reply, err := EchoReplyFrame(MACFromUint64(2), MACFromUint64(1), dst, src, 255, 42, 7, []byte("probe"))
	if err != nil {
		t.Fatal(err)
	}
	_, ipPkt, _ = UnmarshalEthernet(reply)
	ip, body, err = UnmarshalIPv4(ipPkt)
	if err != nil {
		t.Fatal(err)
	}
	if ip.TTL != 255 {
		t.Errorf("reply TTL %d", ip.TTL)
	}
	icmp, err = UnmarshalICMPEcho(body)
	if err != nil {
		t.Fatal(err)
	}
	if icmp.Type != ICMPEchoReply {
		t.Errorf("reply type %d", icmp.Type)
	}
}

// TestEncodersIntoRecycledBuffers checks that the in-place encoders
// produce exactly the allocating encoders' bytes when writing into a
// dirty, reused buffer — the simulator's frame free list hands out such
// buffers.
func TestEncodersIntoRecycledBuffers(t *testing.T) {
	echo := ICMPEcho{Type: ICMPEchoReply, IDent: 0x1234, Seq: 7, Payload: []byte("abc")}
	icmpErr := ICMPError{Type: ICMPTimeExceed, Original: []byte("quoted-header-and-8-bytes...")}
	ip := IPv4{TOS: 1, ID: 9, TTL: 63, Protocol: ProtoICMP, Src: addr("10.0.0.1"), Dst: addr("10.0.0.2")}
	eth := Ethernet{Dst: MACFromUint64(1), Src: MACFromUint64(2), Type: EtherTypeIPv4}
	for name, body := range map[string][]byte{"echo": echo.Marshal(), "error": icmpErr.Marshal()} {
		pkt, err := ip.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		want := eth.Marshal(pkt)

		dirty := bytes.Repeat([]byte{0xa5}, 128)
		buf := dirty[:EthernetHeaderLen+IPv4HeaderLen]
		if name == "echo" {
			buf = echo.AppendTo(buf)
		} else {
			buf = icmpErr.AppendTo(buf)
		}
		if err := ip.MarshalTo(buf[EthernetHeaderLen:]); err != nil {
			t.Fatal(err)
		}
		eth.MarshalTo(buf)
		if !bytes.Equal(buf, want) {
			t.Errorf("%s: in-place frame\n% x\nwant\n% x", name, buf, want)
		}
	}
	if err := ip.MarshalTo(make([]byte, IPv4HeaderLen-1)); err == nil {
		t.Error("MarshalTo accepted a buffer shorter than the header")
	}
}
