package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"net/url"
	"strconv"
	"strings"

	"remotepeering/internal/serve"
)

// Pipeline knobs every what-if in the benchmark carries: a 6-day
// campaign, 96 traffic intervals, coverage at k=3 and a greedy depth of
// 8, over worlds of 3,000 leaf networks.
const (
	leafNetworks = 3000
	campaignDays = 6
	intervals    = 96
	coverageK    = 3
	greedyDepth  = 8
)

// studiedIXPs are the exchanges every generated world measures; ops
// that name an IXP draw from them.
var studiedIXPs = []string{
	"AMS-IX", "DE-CIX", "LINX", "HKIX", "NYIIX", "MSK-IX", "PLIX", "France-IX",
	"PTT", "SIX", "LoNAP", "JPIX", "TorIX", "VIX", "MIX", "TOP-IX",
	"Netnod", "KINX", "CABASE", "INEX", "DIX-IE", "TIE",
}

// opKinds are the what-if op families the grids draw from.
var opKinds = []string{"outage", "latency", "churn", "traffic", "remoteprice"}

// newRand derives an independent stream for one generator from the run
// seed, so adding a generator never shifts another's draws.
func newRand(seed int64, stream string) *rand.Rand {
	h := sha256.Sum256([]byte(stream))
	var s uint64
	for _, b := range h[:8] {
		s = s<<8 | uint64(b)
	}
	return rand.New(rand.NewPCG(uint64(seed), s))
}

// drawOp renders one seeded op of the given kind.
func drawOp(r *rand.Rand, kind string) string {
	ixp := studiedIXPs[r.IntN(len(studiedIXPs))]
	switch kind {
	case "outage":
		return "outage:" + ixp
	case "latency":
		bands := []string{"all", "city", "country", "continent"}
		return fmt.Sprintf("latency:%s:%.1f", bands[r.IntN(len(bands))], float64(r.IntN(81)-30)/10)
	case "churn":
		return fmt.Sprintf("churn:%s:%d:%d", ixp, 1+r.IntN(40), r.IntN(11))
	case "traffic":
		return fmt.Sprintf("traffic:%.2f", 0.7+float64(r.IntN(91))/100)
	default:
		return fmt.Sprintf("remoteprice:%.2f", 0.3+float64(r.IntN(121))/100)
	}
}

// whatifQuery is one generated what-if grid against a world index.
type whatifQuery struct {
	world     int
	scenarios string
	seeds     []int64
	block     int // cold-whatif: the block of eight the query came from
}

// request is the grid as the server parses it, defaults applied.
func (q whatifQuery) request() serve.WhatifRequest {
	wr := serve.WhatifRequest{
		Scenarios: q.scenarios, Seeds: q.seeds,
		K: coverageK, Greedy: greedyDepth, Intervals: intervals, Days: campaignDays,
	}
	wr.ApplyDefaults()
	return wr
}

// cells is the number of grid cells the query expands to.
func (q whatifQuery) cells() int {
	seeds := len(q.seeds)
	if seeds == 0 {
		seeds = 1
	}
	return 1 + strings.Count(q.scenarios, ";")*seeds + seeds
}

// path renders the GET /v1/whatif request for the world's digest.
func (q whatifQuery) path(digest string) string {
	v := url.Values{}
	v.Set("world", digest)
	v.Set("scenarios", q.scenarios)
	v.Set("k", strconv.Itoa(coverageK))
	v.Set("greedy", strconv.Itoa(greedyDepth))
	v.Set("intervals", strconv.Itoa(intervals))
	v.Set("days", strconv.Itoa(campaignDays))
	if len(q.seeds) > 0 {
		parts := make([]string, len(q.seeds))
		for i, s := range q.seeds {
			parts[i] = strconv.FormatInt(s, 10)
		}
		v.Set("seeds", strings.Join(parts, ","))
	}
	return "/v1/whatif?" + v.Encode()
}

// key identifies the query independent of world bytes: world index plus
// the canonical grid.
func (q whatifQuery) key() string {
	return strconv.Itoa(q.world) + "|" + q.request().Canonical()
}

// coldGen generates the cold-whatif request stream: every grid distinct.
// Requests come in blocks of eight with a fixed shape and cost mix, in
// three classes that take about 1, 2.5 and 3 s here:
//
//   - five grids that splice most of the campaign: a traffic or
//     remote-price op, which leaves it clean (twice); an outage or
//     churn, which re-simulates one exchange (twice); and one of each
//     together;
//   - two grids with a latency shift, which re-simulates every exchange
//     and runs past the router's hedge delay, alone and beside a clean
//     op;
//   - one outage or churn over two seeds, which the router fans out;
//     seed offsets re-run the whole campaign.
//
// With the classes at 5/8, 2/8 and 1/8 of the stream, the median falls
// inside the first class and the 75th percentile inside the second,
// never on a boundary between two costs, so a run of ~17 requests gives
// steady figures. (A fan-out in four grids would put the 75th
// percentile on the boundary below the fan-outs.) Every op kind appears
// in every block, and consecutive grids name different worlds, so world
// switches make catalogs attach and evict. The seed chooses op
// parameters, worlds and seed offsets.
type coldGen struct {
	r      *rand.Rand
	worlds int
	seen   map[string]bool
	block  []whatifQuery
	blocks int // blocks filled so far
}

func newColdGen(seed int64, worlds int) *coldGen {
	return &coldGen{r: newRand(seed, "cold-whatif"), worlds: worlds, seen: map[string]bool{}}
}

func (g *coldGen) next() whatifQuery {
	g.nextBlock()
	q := g.block[0]
	g.block = g.block[1:]
	return q
}

// nextBlock is the block of the query next returns.
func (g *coldGen) nextBlock() int {
	for len(g.block) == 0 {
		g.fill()
	}
	return g.block[0].block
}

func (g *coldGen) fill() {
	member := []string{"outage", "churn"}
	clean := []string{"traffic", "remoteprice"}
	g.r.Shuffle(len(member), func(i, j int) { member[i], member[j] = member[j], member[i] })
	g.r.Shuffle(len(clean), func(i, j int) { clean[i], clean[j] = clean[j], clean[i] })
	scenario := func(kind string, i int) string { return fmt.Sprintf("%s%d=%s", kind, i, drawOp(g.r, kind)) }
	// Each cost class sits at fixed positions, so any prefix of the
	// stream holds the same mix.
	grids := []whatifQuery{
		{scenarios: scenario(clean[0], 0)},
		{scenarios: scenario("latency", 0)},
		{scenarios: scenario(member[0], 0)},
		{scenarios: scenario(member[1], 0) + ";" + scenario(clean[1], 1)},
		{scenarios: scenario(member[g.r.IntN(2)], 0)},
		{scenarios: scenario(clean[1], 0)},
		{scenarios: scenario("latency", 0) + ";" + scenario(clean[0], 1)},
		{scenarios: scenario(member[1], 0)},
	}
	a := 1 + g.r.Int64N(40)
	grids[4].seeds = []int64{a, a + 1 + g.r.Int64N(40)}
	for i := range grids {
		grids[i].world, grids[i].block = g.r.IntN(g.worlds), g.blocks
		if i > 0 && grids[i].world == grids[i-1].world {
			grids[i].world = (grids[i].world + 1) % g.worlds
		}
	}
	g.blocks++
	for _, q := range grids {
		if g.seen[q.key()] {
			continue // a repeat would be a cache hit; the stream never repeats
		}
		g.seen[q.key()] = true
		g.block = append(g.block, q)
	}
}

// warmGrids draws the three pre-warmed grids of each world: one
// scenario each, single seed. They leave out the latency op, which
// re-simulates every exchange, to keep the pre-warm short; the timed
// window never evaluates them again.
func warmGrids(seed int64, worlds int) [][]whatifQuery {
	kinds := []string{"outage", "churn", "traffic", "remoteprice"}
	r := newRand(seed, "warm-grids")
	seen := map[string]bool{}
	out := make([][]whatifQuery, worlds)
	for w := range out {
		for len(out[w]) < 3 {
			kind := kinds[r.IntN(len(kinds))]
			q := whatifQuery{world: w, scenarios: kind + "=" + drawOp(r, kind)}
			if !seen[q.key()] {
				seen[q.key()] = true
				out[w] = append(out[w], q)
			}
		}
	}
	return out
}

// warmOp is one warm-mix request: a cached what-if, or (grid < 0) a
// /v1/world point read.
type warmOp struct {
	world, grid int
}

// warmGen generates the warm-mix stream in blocks of seven: six cached
// what-if hits on seeded (world, grid) pairs and one point read at a
// seeded position.
type warmGen struct {
	r      *rand.Rand
	worlds int
	block  []warmOp
}

func newWarmGen(seed int64, worlds int) *warmGen {
	return &warmGen{r: newRand(seed, "warm-mix"), worlds: worlds}
}

func (g *warmGen) next() warmOp {
	if len(g.block) == 0 {
		read := g.r.IntN(7)
		for i := 0; i < 7; i++ {
			op := warmOp{world: g.r.IntN(g.worlds), grid: -1}
			if i != read {
				op.grid = g.r.IntN(3)
			}
			g.block = append(g.block, op)
		}
	}
	op := g.block[0]
	g.block = g.block[1:]
	return op
}

// readKind enumerates the tick-under-load read classes.
type readKind int

const (
	readSince readKind = iota
	readNewspaper
	readTick
	readWhatif
)

// tickRead is one tick-under-load read: back is how many ticks behind
// the latest acknowledged tick a since read starts; grid picks the
// frozen world's cached what-if.
type tickRead struct {
	kind readKind
	back int
	grid int
}

// tickReadGen generates the read stream of tick-under-load in blocks of
// eight: two of each read kind in a seeded order.
type tickReadGen struct {
	r     *rand.Rand
	block []tickRead
}

func newTickReadGen(seed int64) *tickReadGen {
	return &tickReadGen{r: newRand(seed, "tick-reads")}
}

func (g *tickReadGen) next() tickRead {
	if len(g.block) == 0 {
		for _, k := range []readKind{readSince, readSince, readNewspaper, readNewspaper, readTick, readTick, readWhatif, readWhatif} {
			g.block = append(g.block, tickRead{kind: k, back: g.r.IntN(4), grid: g.r.IntN(3)})
		}
		g.r.Shuffle(len(g.block), func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	op := g.block[0]
	g.block = g.block[1:]
	return op
}

// inputDigest hashes the first n requests a workload generates for a
// seed, independent of the world bytes, so two runs can show they drove
// the same request sequence.
func inputDigest(workload string, seed int64, worlds int) string {
	h := sha256.New()
	switch workload {
	case "cold-whatif":
		g := newColdGen(seed, worlds)
		for i := 0; i < 256; i++ {
			fmt.Fprintln(h, g.next().key())
		}
	case "warm-mix":
		for _, grids := range warmGrids(seed, worlds) {
			for _, q := range grids {
				fmt.Fprintln(h, q.key())
			}
		}
		g := newWarmGen(seed, worlds)
		for i := 0; i < 4096; i++ {
			fmt.Fprintln(h, g.next())
		}
	case "tick-under-load":
		for _, q := range warmGrids(seed, 1)[0] {
			fmt.Fprintln(h, q.key())
		}
		g := newTickReadGen(seed)
		for i := 0; i < 4096; i++ {
			fmt.Fprintln(h, g.next())
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// worldSeeds are the generation seeds of a run's worlds. They do not
// follow the run seed: every run serves the same worlds, and the run
// seed varies the requests. A tick's cost depends on the world it
// evolves, and with a world per seed tick p50 differed by 10% between
// seeds for that reason alone.
func worldSeeds(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i) + 1
	}
	return out
}
