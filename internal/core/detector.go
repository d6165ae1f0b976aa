// Package core implements the paper's primary contribution: the ping-based
// detector of remote peering at IXPs (Section 3.1). The detector consumes
// the raw looking-glass observations and the public registry view, applies
// the six data-hygiene filters in the paper's order — sample-size,
// TTL-switch, TTL-match, RTT-consistent, LG-consistent, ASN-change — and
// classifies each surviving ("analyzed") interface by its minimum RTT
// against the 10 ms remoteness threshold, with the Figure 3 distance bands
// ([10,20) intercity, [20,50) intercountry, ≥50 ms intercontinental).
//
// The filters are deliberately conservative: the paper optimises for
// avoiding false positives when estimating the spread of remote peering,
// accepting false negatives (e.g. remote peers closer than the threshold
// horizon) as the price.
package core

import (
	"fmt"
	"net/netip"
	"slices"
	"time"

	"remotepeering/internal/geo"
	"remotepeering/internal/lg"
	"remotepeering/internal/registry"
	"remotepeering/internal/topo"
)

// Filter identifies one of the six data-hygiene filters.
type Filter int

// Filters in the paper's application order. FilterNone marks an interface
// that survived all six and entered the analyzed set.
const (
	FilterNone Filter = iota
	FilterSampleSize
	FilterTTLSwitch
	FilterTTLMatch
	FilterRTTConsistent
	FilterLGConsistent
	FilterASNChange
)

// String implements fmt.Stringer.
func (f Filter) String() string {
	switch f {
	case FilterNone:
		return "analyzed"
	case FilterSampleSize:
		return "sample-size"
	case FilterTTLSwitch:
		return "ttl-switch"
	case FilterTTLMatch:
		return "ttl-match"
	case FilterRTTConsistent:
		return "rtt-consistent"
	case FilterLGConsistent:
		return "lg-consistent"
	case FilterASNChange:
		return "asn-change"
	default:
		return fmt.Sprintf("Filter(%d)", int(f))
	}
}

// AllFilters lists the six filters in application order.
var AllFilters = []Filter{
	FilterSampleSize, FilterTTLSwitch, FilterTTLMatch,
	FilterRTTConsistent, FilterLGConsistent, FilterASNChange,
}

// Config holds the methodology parameters. The zero value is replaced by
// the paper's published settings.
type Config struct {
	// RemoteThreshold is the minimum-RTT remoteness threshold (10 ms).
	RemoteThreshold time.Duration
	// MinRepliesPerLG is the sample-size filter's floor (8 replies per
	// probing LG server).
	MinRepliesPerLG int
	// MinConsistentReplies is the RTT-consistent filter's floor (4
	// replies within the consistency window).
	MinConsistentReplies int
	// ConsistencyAbs and ConsistencyFrac define the window
	// max(ConsistencyAbs, ConsistencyFrac·minRTT) used by both the
	// RTT-consistent and LG-consistent filters (5 ms / 10%).
	ConsistencyAbs  time.Duration
	ConsistencyFrac float64
	// AcceptedTTLs are the expected initial TTL values (64, 255).
	AcceptedTTLs []uint8
	// Disabled switches off individual filters, for the ablation study.
	Disabled map[Filter]bool
}

func (c Config) withDefaults() Config {
	if c.RemoteThreshold == 0 {
		c.RemoteThreshold = 10 * time.Millisecond
	}
	if c.MinRepliesPerLG == 0 {
		c.MinRepliesPerLG = 8
	}
	if c.MinConsistentReplies == 0 {
		c.MinConsistentReplies = 4
	}
	if c.ConsistencyAbs == 0 {
		c.ConsistencyAbs = 5 * time.Millisecond
	}
	if c.ConsistencyFrac == 0 {
		c.ConsistencyFrac = 0.10
	}
	if len(c.AcceptedTTLs) == 0 {
		c.AcceptedTTLs = []uint8{64, 255}
	}
	return c
}

// window returns the consistency window around a minimum RTT.
func (c Config) window(min time.Duration) time.Duration {
	frac := time.Duration(c.ConsistencyFrac * float64(min))
	if frac > c.ConsistencyAbs {
		return frac
	}
	return c.ConsistencyAbs
}

// InterfaceResult is the detector's verdict on one probed interface.
type InterfaceResult struct {
	IXPIndex int
	Acronym  string
	IP       netip.Addr
	// Replies is the number of echo replies received (all LGs pooled).
	Replies int
	// Discard names the filter that removed the interface, or FilterNone
	// if it is analyzed.
	Discard Filter
	// MinRTT is the minimum observed RTT (analyzed interfaces only).
	MinRTT time.Duration
	// Class is the Figure 3 distance class of MinRTT.
	Class geo.DistanceClass
	// Remote reports MinRTT ≥ the remoteness threshold.
	Remote bool
	// ASN is the registry identification; Identified is false when public
	// data cannot name the owner.
	ASN        topo.ASN
	Identified bool
}

// Report is the detector's full output.
type Report struct {
	Cfg Config
	// Interfaces holds every probed interface's verdict, ordered by IXP
	// and address.
	Interfaces []InterfaceResult
	// Discards counts interfaces removed by each filter.
	Discards map[Filter]int
}

// Analyze runs the detection pipeline over a campaign's observations.
//
// The detector reads the canonically sorted stream (lg.Sort) as
// contiguous runs: one run per (IXP, target) interface, and within it
// one sub-run per LG family. Every filter is a fold over those runs, so
// no per-interface tables are built. Input that is not in canonical
// order is sorted into a copy first; the caller's slice is never
// reordered, and verdicts do not depend on input order.
func Analyze(obs []lg.Observation, reg *registry.Registry, campaign time.Duration, cfg Config) (*Report, error) {
	if len(obs) == 0 {
		return nil, fmt.Errorf("core: no observations")
	}
	if campaign <= 0 {
		return nil, fmt.Errorf("core: non-positive campaign duration %v", campaign)
	}
	cfg = cfg.withDefaults()
	if !lg.IsSorted(obs) {
		obs = slices.Clone(obs)
		lg.Sort(obs)
	}

	ifaces := 0
	for i := range obs {
		if i == 0 || !sameIface(&obs[i-1], &obs[i]) {
			ifaces++
		}
	}
	rep := &Report{
		Cfg:        cfg,
		Interfaces: make([]InterfaceResult, 0, ifaces),
		Discards:   make(map[Filter]int),
	}
	for lo := 0; lo < len(obs); {
		hi := lo + 1
		for hi < len(obs) && sameIface(&obs[lo], &obs[hi]) {
			hi++
		}
		res := analyzeIface(obs[lo:hi], reg, &cfg)
		if res.Discard != FilterNone {
			rep.Discards[res.Discard]++
		}
		rep.Interfaces = append(rep.Interfaces, res)
		lo = hi
	}
	return rep, nil
}

// sameIface reports whether two observations probe the same interface.
func sameIface(a, b *lg.Observation) bool {
	return a.IXPIndex == b.IXPIndex && a.Target == b.Target
}

// ifaceSummary folds one interface's observations into what the six
// filters read.
type ifaceSummary struct {
	replies     int           // echo replies, all LG families pooled
	families    int           // LG families that probed the interface
	shortFamily bool          // some family returned < MinRepliesPerLG replies
	minFamilies int           // families with at least one reply
	famLo       time.Duration // lowest per-family minimum RTT
	famHi       time.Duration // highest per-family minimum RTT
	min         time.Duration // pooled minimum RTT (when replies > 0)
	ttl         uint8         // first reply TTL seen
	ttlSwitch   bool          // replies carry more than one TTL
	ttlOdd      bool          // some reply TTL is not an accepted value
}

// summarize folds run — one interface's observations in canonical order,
// so each LG family's observations are contiguous — into an
// ifaceSummary.
func summarize(run []lg.Observation, cfg *Config) ifaceSummary {
	var s ifaceSummary
	for lo := 0; lo < len(run); {
		hi := lo
		famReplies := 0
		var famMin time.Duration
		for ; hi < len(run) && run[hi].Family == run[lo].Family; hi++ {
			o := &run[hi]
			if o.TimedOut {
				continue
			}
			if famReplies == 0 || o.RTT < famMin {
				famMin = o.RTT
			}
			famReplies++
			if s.replies == 0 {
				s.ttl = o.TTL
			} else if o.TTL != s.ttl {
				s.ttlSwitch = true
			}
			if !slices.Contains(cfg.AcceptedTTLs, o.TTL) {
				s.ttlOdd = true
			}
			s.replies++
		}
		s.families++
		if famReplies < cfg.MinRepliesPerLG {
			s.shortFamily = true
		}
		if famReplies > 0 {
			if s.minFamilies == 0 || famMin < s.famLo {
				s.famLo = famMin
			}
			if s.minFamilies == 0 || famMin > s.famHi {
				s.famHi = famMin
			}
			s.minFamilies++
		}
		lo = hi
	}
	s.min = s.famLo
	return s
}

// within counts the replies in run whose RTT is at most limit.
func within(run []lg.Observation, limit time.Duration) int {
	n := 0
	for i := range run {
		if !run[i].TimedOut && run[i].RTT <= limit {
			n++
		}
	}
	return n
}

// analyzeIface applies the six filters, in the paper's order, to one
// interface's observations and classifies it if it survives.
func analyzeIface(run []lg.Observation, reg *registry.Registry, cfg *Config) InterfaceResult {
	first := &run[0]
	s := summarize(run, cfg)
	res := InterfaceResult{
		IXPIndex: first.IXPIndex,
		Acronym:  first.Acronym,
		IP:       first.Target,
		Replies:  s.replies,
	}

	// Identification (used by the ASN-change filter and the network
	// analyses): registry lookups at campaign start and end.
	asnEarly, okEarly := reg.LookupASN(res.IXPIndex, res.IP, 0)
	asnLate, okLate := reg.LookupASN(res.IXPIndex, res.IP, 1)
	if okEarly {
		res.ASN = asnEarly
		res.Identified = true
	}
	enabled := func(f Filter) bool { return !cfg.Disabled[f] }

	res.Discard = func() Filter {
		// 1. Sample-size: every probing LG server must have returned at
		// least MinRepliesPerLG replies.
		if enabled(FilterSampleSize) && s.shortFamily {
			return FilterSampleSize
		}
		// 2. TTL-switch: the reply TTL must not change during the
		// measurement period.
		if enabled(FilterTTLSwitch) && s.ttlSwitch {
			return FilterTTLSwitch
		}
		// 3. TTL-match: the reply TTL must be one of the expected
		// initial values; anything else betrays an extra IP hop or an
		// unusual OS.
		if enabled(FilterTTLMatch) && s.ttlOdd {
			return FilterTTLMatch
		}
		// 4. RTT-consistent: at least MinConsistentReplies of the
		// collected replies must sit within the window above the
		// minimum RTT.
		if enabled(FilterRTTConsistent) {
			consistent := 0
			if s.replies > 0 {
				consistent = within(run, s.min+cfg.window(s.min))
			}
			if consistent < cfg.MinConsistentReplies {
				return FilterRTTConsistent
			}
		}
		// 5. LG-consistent: when both LG families probed the interface,
		// their per-family minimum RTTs must agree within the window.
		if enabled(FilterLGConsistent) && s.families >= 2 && s.minFamilies >= 2 &&
			s.famHi > s.famLo+cfg.window(s.famLo) {
			return FilterLGConsistent
		}
		// 6. ASN-change: the registry identification must be stable
		// across the campaign.
		if enabled(FilterASNChange) && okEarly && okLate && asnEarly != asnLate {
			return FilterASNChange
		}
		return FilterNone
	}()

	if res.Discard == FilterNone {
		if s.replies == 0 {
			// No replies at all and the sample-size filter was
			// disabled: treat as a sample-size discard regardless,
			// since there is nothing to classify.
			res.Discard = FilterSampleSize
		} else {
			res.MinRTT = s.min
			res.Class = geo.ClassifyRTT(s.min)
			res.Remote = s.min >= cfg.RemoteThreshold
		}
	}
	return res
}
