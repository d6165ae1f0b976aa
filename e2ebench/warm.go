package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Warm-mix rates: the fixed operating point; the closed-loop slice over
// which throughput is counted; the ladder's step factor, step length and
// tries per rate; and the latency limit each step must meet.
const (
	warmRate       = 2000.0
	closedSlice    = 250 * time.Millisecond
	ladderFactor   = 1.1
	ladderStep     = time.Second
	ladderTries    = 3
	warmP99Limit   = 5 * time.Millisecond
	backlogLimit   = 10 * time.Millisecond
	warmFixedPart  = 0.45 // share of the window at the fixed rate
	warmClosedPart = 0.25 // share of the window in closed loops
	warmRounds     = 6    // turns of fixed rate and closed loops
)

// warmMix is an open loop of cached what-if hits and point reads over
// pre-warmed worlds: no evaluation and no attach, only routing, the
// worker cache, query canonicalisation, and HTTP/JSON.
type warmMix struct {
	grids  [][]whatifQuery
	gen    *warmGen
	client *http.Client
	bodies [][][]byte     // [world][grid] the pre-warm answer
	owners map[string]int // worker URL -> worlds it answered in the pre-warm
}

func newWarmMix(seed int64) *warmMix {
	return &warmMix{grids: warmGrids(seed, 4), gen: newWarmGen(seed, 4), client: newClient(2)}
}

func (w *warmMix) spec() clusterSpec       { return clusterSpec{worlds: 4} }
func (w *warmMix) clients() []*http.Client { return []*http.Client{w.client} }

// warm computes every (world, grid) answer on both workers, one
// connection to each, then confirms through the router that each is a
// byte-identical cache hit.
//
// Both workers are warmed because the router hedges any forward slower
// than 25 ms once its hedge histogram fills with hits, and a hedge to a
// worker without the answer is a cold evaluation. Warmed on the owner
// alone, one scheduling stall set off a cascade in about half of the
// runs — each duplicate evaluation stalled more forwards into more
// hedges (147 hedges and 69 evaluations in one 30 s window, p99 15 ms
// against 0.8 ms) — so the workload measured the hedger rather than the
// hit path it exists for. cold-whatif measures hedged duplicates.
func (w *warmMix) warm(ctx context.Context, b *bench) error {
	got := make([][][][]byte, len(b.c.workers)) // [worker][world][grid]
	errs := make([]error, len(b.c.workers))
	var wg sync.WaitGroup
	for i, wk := range b.c.workers {
		wg.Add(1)
		go func(i int, base string) {
			defer wg.Done()
			got[i] = make([][][]byte, len(w.grids))
			for wi, grids := range w.grids {
				for _, q := range grids {
					rep, err := fetch(ctx, w.client, http.MethodGet, base+q.path(b.c.worlds[wi].digest))
					if err == nil && rep.status != http.StatusOK {
						err = fmt.Errorf("pre-warm %s on %s: status %d: %s", q.key(), base, rep.status, rep.body)
					}
					if err != nil {
						errs[i] = err
						return
					}
					got[i][wi] = append(got[i][wi], rep.body)
				}
			}
		}(i, wk.url)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	w.bodies = got[0]
	w.owners = map[string]int{}
	for wi, grids := range w.grids {
		for gi, q := range grids {
			if !bytes.Equal(got[0][wi][gi], got[1][wi][gi]) {
				b.fail("warm-mix: the two workers computed different answers for %s", q.key())
			}
			rep, err := fetch(ctx, w.client, http.MethodGet, b.url(q.path(b.c.worlds[wi].digest)))
			if err != nil {
				return err
			}
			if rep.status != http.StatusOK || rep.header.Get("X-Cache") != "hit" || !bytes.Equal(rep.body, w.bodies[wi][gi]) {
				b.fail("warm-mix: pre-warmed %s did not repeat as a byte-identical hit", q.key())
			}
			if gi == 0 {
				w.owners[rep.header.Get("X-Fleet-Member")]++
			}
		}
	}
	return nil
}

// phase drives one open-loop rate for d.
func (w *warmMix) phase(ctx context.Context, b *bench, rate float64, d time.Duration) []sample {
	n := int(rate * d.Seconds())
	ops := make([]warmOp, n)
	for i := range ops {
		ops[i] = w.gen.next()
	}
	return openLoop(ctx, rate, n, 2, 2*d, 0, func(ctx context.Context, i int, timed func()) (string, int) {
		return w.send(ctx, b, ops[i], timed)
	})
}

// closedLoops drives both connections in closed loops for d and returns
// the requests they completed in each slice of closedSlice.
func (w *warmMix) closedLoops(ctx context.Context, b *bench, d time.Duration) ([]sample, []int) {
	ops := make([]warmOp, int(20000*d.Seconds())) // more than two connections send
	for i := range ops {
		ops[i] = w.gen.next()
	}
	var next atomic.Int64
	do := func(ctx context.Context, _ int, timed func()) (string, int) {
		return w.send(ctx, b, ops[int(next.Add(1)-1)%len(ops)], timed)
	}
	t0 := time.Now()
	var loops [2][]sample
	var wg sync.WaitGroup
	for c := range loops {
		wg.Add(1)
		go func() {
			defer wg.Done()
			loops[c] = closedLoop(ctx, t0.Add(d), 0, do)
		}()
	}
	wg.Wait()
	ss := append(loops[0], loops[1]...)
	counts := make([]int, max(1, int(d/closedSlice)))
	for _, s := range ss {
		if i := int(s.done.Sub(t0) / closedSlice); s.ok() && i < len(counts) {
			counts[i]++
		}
	}
	return ss, counts
}

// send sends one warm request and checks its answer.
func (w *warmMix) send(ctx context.Context, b *bench, op warmOp, timed func()) (string, int) {
	digest := b.c.worlds[op.world].digest
	if op.grid < 0 {
		rep, err := fetch(ctx, w.client, http.MethodGet, b.url("/v1/world?world="+digest))
		timed()
		if err != nil {
			return "GET /v1/world", 0
		}
		if rep.status == http.StatusOK && !bytes.Contains(rep.body, []byte(digest)) {
			b.fail("warm-mix: /v1/world for %.12s answered another world", digest)
		}
		return "GET /v1/world", rep.status
	}
	rep, err := fetch(ctx, w.client, http.MethodGet, b.url(w.grids[op.world][op.grid].path(digest)))
	timed()
	if err != nil {
		return "GET /v1/whatif", 0
	}
	if rep.status == http.StatusOK {
		if c := rep.header.Get("X-Cache"); c != "hit" {
			b.fail("warm-mix: %s answered X-Cache %q in the timed window", w.grids[op.world][op.grid].key(), c)
		}
		if !bytes.Equal(rep.body, w.bodies[op.world][op.grid]) {
			b.fail("warm-mix: %s answered bytes that differ from its pre-warmed answer", w.grids[op.world][op.grid].key())
		}
	}
	return "GET /v1/whatif", rep.status
}

// meets reports whether a step held the latency limit: every request
// sent and answered, p99 latency within the limit, and no backlog left
// growing — the step's last tenth sent on schedule, within a margin far
// above the generator's wake-up jitter, and the step's requests answered
// at the rate they were offered.
func meets(ss []sample, n int, rate float64) bool {
	if len(ss) < n || failedCount(ss) > 0 {
		return false
	}
	if quantile(completedLatencies(ss), 0.99) > warmP99Limit {
		return false
	}
	tail := ss[len(ss)-len(ss)/10:]
	return quantile(durations(tail, sample.late), 0.5) <= backlogLimit && completionRate(ss) >= 0.95*rate
}

// completionRate is answered requests per second over the step.
func completionRate(ss []sample) float64 {
	if len(ss) == 0 {
		return 0
	}
	first, last := ss[0].due, ss[0].done
	for _, s := range ss {
		if s.done.After(last) {
			last = s.done
		}
	}
	return float64(int64(len(ss))-failedCount(ss)) / last.Sub(first).Seconds()
}

// window turns warmRounds times between the fixed rate and closed loops
// on both connections, then searches the rest of the window for the
// highest open-loop rate that holds the limit (warm_max_rps).
//
// The throughput is the closed loops' rate — the most the two
// connections carry — as the median over all their slices of
// closedSlice. Spread in turns over most of the window, the slices
// sample the shared host's speed over tens of seconds rather than a few,
// and a scheduler stall costs one slice rather than the figure. p50 and
// CPU per request come from the fixed-rate turns alone.
//
// The ladder's rates are ladderFactor apart, starting at the closed-loop
// rate: up while rates hold, down while they miss, until the first rate
// that changes direction. A rate misses only if it misses ladderTries
// times running, so a scheduler stall on the shared CPUs does not end
// the climb. The limit sat within 0.9–1.5 times the closed-loop rate in
// every run measured, so the ladder meets it within a few steps rather
// than at a ceiling of its own. It is printed, not used as the
// throughput: a search in 10% steps that ends on three misses running
// spread 12–26% between seeds.
func (w *warmMix) window(ctx context.Context, b *bench, dur time.Duration) (*figures, error) {
	defer b.tr.alternate(time.Second)()
	fixedTurn := time.Duration(float64(dur) * warmFixedPart / warmRounds)
	closedTurn := time.Duration(float64(dur)*warmClosedPart/warmRounds) / closedSlice * closedSlice
	end := time.Now().Add(dur)

	var fixed, all []sample
	var slices []int
	var cpu time.Duration
	fixedHeld, fixedRate := true, math.Inf(1)
	for range warmRounds {
		cpu0 := cpuTime()
		ss := w.phase(ctx, b, warmRate, fixedTurn)
		cpu += cpuTime() - cpu0
		if meets(ss, int(warmRate*fixedTurn.Seconds()), warmRate) {
			fixedRate = min(fixedRate, completionRate(ss))
		} else {
			fixedHeld = false
		}
		fixed = append(fixed, ss...)
		closed, counts := w.closedLoops(ctx, b, closedTurn)
		all = append(all, ss...)
		all = append(all, closed...)
		slices = append(slices, counts...)
	}
	sort.Ints(slices)
	closedRate := float64(slices[(len(slices)-1)/2]) / closedSlice.Seconds()
	best := 0.0
	if fixedHeld {
		best = fixedRate
	}
	ladder := []string{fmt.Sprintf("%.0f:%v", warmRate, best > 0)}
	// holds runs rate until it holds, at most ladderTries times; ok is
	// false when the window ran out first.
	holds := func(rate float64) (held, ok bool) {
		for try := 0; try < ladderTries; try++ {
			if time.Until(end) < ladderStep || ctx.Err() != nil {
				return false, false
			}
			ss := w.phase(ctx, b, rate, ladderStep)
			all = append(all, ss...)
			met := meets(ss, int(rate*ladderStep.Seconds()), rate)
			ladder = append(ladder, fmt.Sprintf("%.0f:%v", rate, met))
			if met {
				best = max(best, completionRate(ss))
				return true, true
			}
		}
		return false, true
	}
	rate := closedRate
	up, ok := holds(rate)
	for ok {
		if up {
			rate *= ladderFactor
		} else {
			rate /= ladderFactor
		}
		var held bool
		if held, ok = holds(rate); held != up {
			break
		}
	}
	if !ok {
		ladder = append(ladder, "window ended")
	}
	if best == 0 {
		ladder = append(ladder, "no rate held")
	}

	lat := completedLatencies(fixed)
	completed := int64(len(fixed)) - failedCount(fixed)
	f := &figures{
		p50:         quantile(lat, 0.5),
		throughput:  closedRate,
		latenessP99: quantile(durations(fixed, sample.late), 0.99),
		samples:     all,
		split: func(keep func(sample) bool) (time.Duration, time.Duration) {
			kept := completedLatencies(filter(fixed, keep))
			return quantile(kept, 0.5), quantile(kept, 0.99)
		},
	}
	if completed > 0 {
		f.cpuPerReq = cpu / time.Duration(completed)
	}
	f.report = []string{
		percentileLine("warm_p50_ms", f.p50, len(fixed)),
		percentileLine("warm_p99_ms", quantile(lat, 0.99), len(fixed)),
		percentileLine("warm_p99_median_second_ms", secondP99(fixed), len(fixed)),
		fmt.Sprintf("%-26s %12.4f req/s (median of %d slices of %v; p10 %.0f, p90 %.0f)", "warm_closed_rps", closedRate, len(slices), closedSlice,
			float64(slices[len(slices)/10])/closedSlice.Seconds(), float64(slices[len(slices)*9/10])/closedSlice.Seconds()),
		fmt.Sprintf("%-26s %12.4f req/s (ladder rate:met %v)", "warm_max_rps", best, ladder),
		percentileLine("loadgen_late_p99_ms", f.latenessP99, len(fixed)),
		fmt.Sprintf("world owners %v", w.owners),
	}
	return f, nil
}

func (w *warmMix) check(context.Context, *bench) error { return nil }

func (w *warmMix) layers(context.Context, *bench, *layerSet) error { return nil }
