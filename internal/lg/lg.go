// Package lg drives the measurement campaign of Section 3.1: looking-glass
// servers at the studied IXPs ping the registry-listed member interfaces.
// It reproduces the paper's probing discipline — HTML queries to PCH
// servers trigger 5 pings each and RIPE NCC servers 3, at most one query
// per minute per server, with the rounds spread over the four-month
// campaign at different times of day and days of the week (the defence
// against transient congestion).
package lg

import (
	"cmp"
	"fmt"
	"math"
	"net/netip"
	"slices"
	"time"

	"remotepeering/internal/ixpsim"
	"remotepeering/internal/netsim"
	"remotepeering/internal/stats"
)

// Observation is one ping outcome as seen from an LG server: the raw
// material of the paper's detector.
type Observation struct {
	IXPIndex int
	Acronym  string
	Family   string // ixpsim.FamilyPCH or ixpsim.FamilyRIPE
	Target   netip.Addr
	SentAt   time.Duration
	RTT      time.Duration
	TTL      uint8
	TimedOut bool
}

// Config parameterises the campaign. The zero value is replaced by the
// paper's regime.
type Config struct {
	// Duration of the campaign. Default 120 days (October 2013 to
	// January 2014).
	Duration time.Duration
	// PCHRounds and RIPERounds are the number of query rounds per target
	// per LG family. The paper observed at most 54 replies from PCH
	// (≈ 11 queries × 5 pings) and at most 21 from RIPE NCC (7 × 3).
	PCHRounds  int
	RIPERounds int
	// PingsPerQueryPCH and PingsPerQueryRIPE are the pings one HTML query
	// triggers (5 and 3 in the paper).
	PingsPerQueryPCH  int
	PingsPerQueryRIPE int
	// QuerySpacing is the per-server rate limit (1 minute in the paper).
	QuerySpacing time.Duration
	// PingTimeout bounds how long a reply is awaited.
	PingTimeout time.Duration
}

func (c Config) withDefaults() Config {
	if c.Duration == 0 {
		c.Duration = 120 * 24 * time.Hour
	}
	if c.PCHRounds == 0 {
		c.PCHRounds = 11
	}
	if c.RIPERounds == 0 {
		c.RIPERounds = 7
	}
	if c.PingsPerQueryPCH == 0 {
		c.PingsPerQueryPCH = 5
	}
	if c.PingsPerQueryRIPE == 0 {
		c.PingsPerQueryRIPE = 3
	}
	if c.QuerySpacing == 0 {
		c.QuerySpacing = time.Minute
	}
	if c.PingTimeout == 0 {
		c.PingTimeout = 5 * time.Second
	}
	return c
}

// CampaignDays converts a campaign length in whole days to a Duration.
// Zero means the caller's default and converts to zero; a negative count,
// or one too long for time.Duration to hold (over ~106,751 days), is an
// error rather than a silently wrapped duration.
func CampaignDays(days int64) (time.Duration, error) {
	const day = int64(24 * time.Hour)
	if days < 0 || days > math.MaxInt64/day {
		return 0, fmt.Errorf("lg: campaign of %d days out of range [0, %d]", days, math.MaxInt64/day)
	}
	return time.Duration(days * day), nil
}

// Campaign schedules and collects a measurement campaign across a set of
// simulated IXPs sharing one engine.
type Campaign struct {
	cfg Config
	obs []Observation
}

// NewCampaign creates a campaign with the given configuration.
func NewCampaign(cfg Config) *Campaign {
	return &Campaign{cfg: cfg.withDefaults()}
}

// Schedule enqueues all probe events for the given simulated IXP onto the
// engine. Call once per IXP, then run the engine, then read Observations.
func (c *Campaign) Schedule(e *netsim.Engine, sim *ixpsim.SimIXP, src *stats.Source) error {
	if len(sim.Targets) == 0 {
		return fmt.Errorf("lg: IXP %s has no probe targets", sim.Acronym)
	}
	// Every probe reports exactly once, so the observation stream's
	// final length is known now.
	probes := 0
	for _, server := range sim.LGs {
		rounds, pings := c.perServer(server)
		if c.cfg.Duration/time.Duration(rounds)/2 <= 0 {
			return fmt.Errorf("lg: campaign of %v too short for %d rounds", c.cfg.Duration, rounds)
		}
		probes += rounds * pings * len(sim.Targets)
	}
	c.obs = slices.Grow(c.obs, probes)
	e.Reserve(probes)
	for _, server := range sim.LGs {
		rounds, pings := c.perServer(server)
		record := c.recorder(sim, server)
		roundSpan := c.cfg.Duration / time.Duration(rounds)
		for r := 0; r < rounds; r++ {
			// Each round starts at a different time of day and day of
			// week: base + jitter inside the first half of the span.
			base := time.Duration(r) * roundSpan
			jitter := time.Duration(src.Int63n(int64(roundSpan / 2)))
			roundStart := base + jitter
			for ti, target := range sim.Targets {
				qAt := roundStart + time.Duration(ti)*c.cfg.QuerySpacing
				// One LG query: `pings` echo requests spaced one
				// second apart.
				for p := 0; p < pings; p++ {
					server.Node.PingAt(qAt+time.Duration(p)*time.Second, target, c.cfg.PingTimeout, record)
				}
			}
		}
	}
	return nil
}

// perServer returns the query rounds per target and the pings per query
// of the server's LG family.
func (c *Campaign) perServer(server *ixpsim.LGServer) (rounds, pings int) {
	if server.Family == ixpsim.FamilyRIPE {
		return c.cfg.RIPERounds, c.cfg.PingsPerQueryRIPE
	}
	return c.cfg.PCHRounds, c.cfg.PingsPerQueryPCH
}

// recorder returns the ping callback that appends one server's outcomes
// to the campaign; the probed target travels in the result.
func (c *Campaign) recorder(sim *ixpsim.SimIXP, server *ixpsim.LGServer) func(netsim.PingResult) {
	return func(r netsim.PingResult) {
		c.obs = append(c.obs, Observation{
			IXPIndex: sim.IXPIndex,
			Acronym:  sim.Acronym,
			Family:   server.Family,
			Target:   r.Target,
			SentAt:   r.SentAt,
			RTT:      r.RTT,
			TTL:      r.TTL,
			TimedOut: r.TimedOut,
		})
	}
}

// Observations returns everything collected so far, sorted by IXP, target,
// family, and send time so downstream processing is deterministic.
func (c *Campaign) Observations() []Observation {
	Sort(c.obs)
	return c.obs
}

// Raw returns the collected observations in engine execution order,
// unsorted — for callers that merge several campaigns' streams and sort
// the concatenation once instead of paying a sort per campaign.
func (c *Campaign) Raw() []Observation { return c.obs }

// Sort orders observations by IXP, target, family, and send time — the
// canonical order downstream analysis expects. The order is the stable
// one: all four-way key ties originate from a single IXP's engine, whose
// execution order is deterministic, and they keep their input order.
// This is what lets a parallel campaign merge per-IXP observation
// streams into a byte-identical result for any worker count.
//
// Observations are 88-byte records, so rather than moving them through a
// stable merge sort, Sort sorts a 4-byte index permutation with an
// unstable sort whose comparator breaks key ties on the original index —
// which yields exactly the stable order — and then applies the
// permutation in place, moving each record once.
func Sort(obs []Observation) {
	perm := make([]int32, len(obs))
	for i := range perm {
		perm[i] = int32(i)
	}
	slices.SortFunc(perm, func(a, b int32) int {
		if c := Compare(&obs[a], &obs[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	// perm[k] names the record that belongs at k. Follow each cycle,
	// marking visited positions by pointing them at themselves.
	for start := range perm {
		if int(perm[start]) == start {
			continue
		}
		held := obs[start]
		k := start
		for {
			src := int(perm[k])
			perm[k] = int32(k)
			if src == start {
				obs[k] = held
				break
			}
			obs[k] = obs[src]
			k = src
		}
	}
}

// Compare orders two observations canonically — by IXP, target, family,
// and send time — returning -1, 0 or +1. Sort orders by it; equal keys
// keep their input order.
func Compare(a, b *Observation) int {
	if a.IXPIndex != b.IXPIndex {
		return cmp.Compare(a.IXPIndex, b.IXPIndex)
	}
	if c := a.Target.Compare(b.Target); c != 0 {
		return c
	}
	if a.Family != b.Family {
		return cmp.Compare(a.Family, b.Family)
	}
	return cmp.Compare(a.SentAt, b.SentAt)
}

// IsSorted reports whether obs is already in canonical order.
func IsSorted(obs []Observation) bool {
	for i := 1; i < len(obs); i++ {
		if Compare(&obs[i-1], &obs[i]) > 0 {
			return false
		}
	}
	return true
}

// Config returns the effective configuration.
func (c *Campaign) Config() Config { return c.cfg }
