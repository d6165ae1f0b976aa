// Package netsim is a deterministic discrete-event packet-level simulator
// of the layer-2/layer-3 world the paper measures: IXP switching fabrics
// (possibly spanning multiple locations), remote-peering pseudowires that
// attach distant routers to those fabrics, IP routers and hosts with real
// TTL semantics, and ICMP echo. It reproduces the observables the paper's
// detector consumes — ping RTTs and reply TTLs from looking-glass servers —
// including every failure mode the detector's six filters were designed
// for: congestion jitter, replies that take an extra IP hop, operating
// systems that change their initial TTL mid-campaign, blackholing, and
// multi-location IXP fabrics.
//
// The simulator is single-threaded and deterministic: all randomness comes
// from stats.Source streams seeded by the caller, and events at equal
// timestamps fire in schedule order.
package netsim

import (
	"errors"
	"net/netip"
	"slices"
	"time"
)

// Engine is the discrete-event core. The zero value is ready to use.
//
// The simulator's own events are typed: the queue holds small (at, seq,
// kind, slot) entries and each event's operands sit in a recycled
// payload slot, so frame deliveries, delayed transmissions, ping
// launches and ping timeouts schedule without allocating a closure.
// Frames travel in recycled buffers from a per-engine free list (see
// getBuf). Arbitrary callbacks (Schedule, After) remain one event kind
// among the others and share the same (at, seq) order.
type Engine struct {
	now    time.Duration
	queue  eventQueue
	seq    uint64
	halted bool

	slots     []payload
	freeSlots []int32
	bufs      [][]byte
}

// eventKind selects how an event's payload is executed.
type eventKind uint8

const (
	evFunc        eventKind = iota // payload.fn()
	evDeliver                      // payload.frame arrives at payload.iface
	evSendIP                       // payload.node routes payload.frame
	evPing                         // payload.node pings payload.dst
	evPingTimeout                  // payload.node's ping payload.ping expires
)

type event struct {
	at   time.Duration
	seq  uint64
	slot int32
	kind eventKind
}

// payload holds an event's operands; which fields are set depends on
// the event's kind. A frame in a payload is owned by the event.
type payload struct {
	fn      func()
	cb      func(PingResult)
	node    *Node
	iface   *Iface
	frame   []byte
	dst     netip.Addr
	timeout time.Duration
	ping    int32
}

// before is the total event order: time, then schedule sequence. (at, seq)
// pairs are unique, so the pop order of any min-heap over this relation is
// fully determined — the queue's internal layout never leaks into results.
func (e event) before(o event) bool {
	if e.at != o.at {
		return e.at < o.at
	}
	return e.seq < o.seq
}

// eventQueue is an inlined 4-ary min-heap keyed on (at, seq). It replaces
// the container/heap binary heap: heap.Push/heap.Pop box every event into
// an interface{} (one allocation per scheduled event) and call Less/Swap
// through the heap.Interface method table; this version is monomorphic,
// allocation-free after slice growth, and — being 4-ary — does about half
// the sift-down levels per pop, which is where a discrete-event simulator
// spends its queue time.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	h := append(*q, ev)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	*q = h
}

func (q *eventQueue) pop() event {
	h := *q
	root := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	*q = h
	i := 0
	for {
		first := i<<2 + 1
		if first >= len(h) {
			break
		}
		m := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if h[c].before(h[m]) {
				m = c
			}
		}
		if !h[m].before(h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return root
}

// Now returns the current simulation time (offset from the simulation
// epoch, which the world generator aligns with the start of the paper's
// October-2013 measurement campaign).
func (e *Engine) Now() time.Duration { return e.now }

// Schedule runs fn at the absolute simulation time at. Scheduling in the
// past is an error and panics: it always indicates a bug in a model
// component, and silently reordering events would destroy determinism.
func (e *Engine) Schedule(at time.Duration, fn func()) {
	e.schedule(at, evFunc).fn = fn
}

// After schedules fn after a delay from the current time.
func (e *Engine) After(d time.Duration, fn func()) {
	e.Schedule(e.now+d, fn)
}

// schedule queues an event of the given kind at time at and returns its
// payload slot for the caller to fill. The pointer is valid until the
// next schedule call.
func (e *Engine) schedule(at time.Duration, kind eventKind) *payload {
	if at < e.now {
		panic("netsim: scheduling into the past")
	}
	var slot int32
	if k := len(e.freeSlots); k > 0 {
		slot = e.freeSlots[k-1]
		e.freeSlots = e.freeSlots[:k-1]
	} else {
		slot = int32(len(e.slots))
		e.slots = append(e.slots, payload{})
	}
	e.seq++
	e.queue.push(event{at: at, seq: e.seq, slot: slot, kind: kind})
	return &e.slots[slot]
}

// Reserve makes room for n more pending events, so a caller that queues
// a known number of events up front (a campaign's probes) grows the
// queue and the payload slots once instead of by repeated doubling.
func (e *Engine) Reserve(n int) {
	e.queue = slices.Grow(e.queue, n)
	if n > len(e.freeSlots) {
		e.slots = slices.Grow(e.slots, n-len(e.freeSlots))
	}
}

// frameCap is the capacity of recycled frame buffers: room for an
// Ethernet, IPv4 and ICMP time-exceeded frame quoting 28 bytes (70
// bytes), the largest frame the simulator builds without a payload.
const frameCap = 128

// getBuf returns a buffer of length n from the free list, allocating
// only when the list is empty or n exceeds frameCap. Its contents are
// stale: the caller writes every byte it uses.
func (e *Engine) getBuf(n int) []byte {
	if n > frameCap {
		return make([]byte, n)
	}
	if k := len(e.bufs); k > 0 {
		b := e.bufs[k-1]
		e.bufs = e.bufs[:k-1]
		return b[:n]
	}
	return make([]byte, n, frameCap)
}

// putBuf returns a buffer to the free list. Only the owner of a buffer
// may release it, and only once nothing reads it any more: a frame is
// owned by the node building it, then by its delivery event, and is
// released once the receiving interface's handler returns. Handlers copy
// whatever they keep (a forwarded packet, a quoted header, an echoed
// payload). Buffers of other capacities (oversized frames) are left to
// the garbage collector.
func (e *Engine) putBuf(b []byte) {
	if cap(b) == frameCap {
		e.bufs = append(e.bufs, b[:0])
	}
}

// ErrHalted is returned by Run variants when Halt was called.
var ErrHalted = errors.New("netsim: engine halted")

// Run executes events until the queue drains or Halt is called.
func (e *Engine) Run() error {
	for len(e.queue) > 0 {
		if e.halted {
			return ErrHalted
		}
		e.step()
	}
	return nil
}

// RunUntil executes events with timestamps ≤ deadline, then advances the
// clock to the deadline. Events beyond the deadline stay queued.
func (e *Engine) RunUntil(deadline time.Duration) error {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		if e.halted {
			return ErrHalted
		}
		e.step()
	}
	if !e.halted && e.now < deadline {
		e.now = deadline
	}
	if e.halted {
		return ErrHalted
	}
	return nil
}

// step pops and executes one event. The payload is copied out and its
// slot freed before execution, so the handler may schedule into it.
func (e *Engine) step() {
	ev := e.queue.pop()
	e.now = ev.at
	p := e.slots[ev.slot]
	e.slots[ev.slot] = payload{}
	e.freeSlots = append(e.freeSlots, ev.slot)
	switch ev.kind {
	case evFunc:
		p.fn()
	case evDeliver:
		p.iface.receive(p.frame)
		e.putBuf(p.frame)
	case evSendIP:
		p.node.sendIP(p.frame)
	case evPing:
		p.node.Ping(p.dst, p.timeout, p.cb)
	case evPingTimeout:
		p.node.pingTimeout(p.ping)
	}
}

// Halt stops Run/RunUntil before the next event.
func (e *Engine) Halt() { e.halted = true }

// Pending returns the number of queued events, which tests use to assert
// quiescence.
func (e *Engine) Pending() int { return len(e.queue) }
