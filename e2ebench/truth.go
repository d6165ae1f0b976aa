package main

// Server truth: the router and the workers keep their own request
// histograms (rp_fleet_request_seconds, rp_serve_request_seconds) and
// counters on GET /metrics. The benchmark scrapes them around the timed
// window, subtracts, and checks that the servers' percentiles agree
// with what the client measured, within the histogram's bucket
// resolution. The parsing and bucket logic follow scripts/chaosload.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"
)

// scrape is one parsed /metrics exposition: series text -> value.
type scrape map[string]float64

func scrapeMetrics(ctx context.Context, c *http.Client, base string) (scrape, error) {
	rep, err := fetch(ctx, c, http.MethodGet, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if rep.status != http.StatusOK {
		return nil, fmt.Errorf("GET %s/metrics: status %d", base, rep.status)
	}
	out := scrape{}
	for _, line := range strings.Split(string(rep.body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		out[line[:sp]] = v
	}
	return out, nil
}

// sub returns after − before, series by series.
func (s scrape) sub(before scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}

// add merges another scrape into s (summing series).
func (s scrape) add(o scrape) scrape {
	out := scrape{}
	for k, v := range s {
		out[k] = v
	}
	for k, v := range o {
		out[k] += v
	}
	return out
}

// get reads one unlabelled series (0 if absent).
func (s scrape) get(name string) float64 { return s[name] }

// mean returns a histogram family's mean observation (sum/count) in
// milliseconds, and its count. labels is the rendered label set, "" for
// none.
func (s scrape) mean(family, labels string) (float64, float64) {
	n := s[family+"_count"+labels]
	if n <= 0 {
		return 0, 0
	}
	return s[family+"_sum"+labels] / n * 1000, n
}

// serverHist is one class's cumulative bucket counts.
type serverHist struct {
	bounds []float64 // upper bounds in seconds, ascending, excluding +Inf
	counts []int64   // cumulative counts per bound
	total  int64     // the +Inf (total) count
}

// hist extracts a class's histogram of a request-latency family.
func (s scrape) hist(family, class string) *serverHist {
	type cell struct {
		le  float64
		n   int64
		inf bool
	}
	var cells []cell
	prefix := family + `_bucket{class="` + class + `",le="`
	for k, v := range s {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := strings.TrimSuffix(k[len(prefix):], `"}`)
		if le == "+Inf" {
			cells = append(cells, cell{inf: true, n: int64(v)})
			continue
		}
		f, err := strconv.ParseFloat(le, 64)
		if err != nil {
			continue
		}
		cells = append(cells, cell{le: f, n: int64(v)})
	}
	sort.Slice(cells, func(i, j int) bool {
		if cells[i].inf != cells[j].inf {
			return !cells[i].inf
		}
		return cells[i].le < cells[j].le
	})
	h := &serverHist{}
	for _, c := range cells {
		if c.inf {
			h.total = c.n
			continue
		}
		h.bounds = append(h.bounds, c.le)
		h.counts = append(h.counts, c.n)
	}
	if h.total == 0 {
		return nil
	}
	return h
}

// quantileBucket returns the bucket index and upper bound (seconds)
// holding the q-quantile; index len(bounds) is the overflow bucket.
func (h *serverHist) quantileBucket(q float64) (int, float64) {
	rank := int64(q * float64(h.total))
	if rank < 1 {
		rank = 1
	}
	for i, c := range h.counts {
		if c >= rank {
			return i, h.bounds[i]
		}
	}
	last := 0.0
	if len(h.bounds) > 0 {
		last = h.bounds[len(h.bounds)-1]
	}
	return len(h.bounds), last
}

func (h *serverHist) bucketIndex(v float64) int {
	for i, b := range h.bounds {
		if v <= b {
			return i
		}
	}
	return len(h.bounds)
}

// chaosPct is chaosload's client percentile: index (n-1)·p/100 of the
// ascending durations, which pairs with quantileBucket's floor rank.
func chaosPct(sorted []time.Duration, p int) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)*p/100]
}

// crossCheck compares the client's send-to-reply p50 and p99 of each
// class against the router's request histogram (p50 within one bucket
// either way, p99 at most one bucket slower than the client) and the
// workers' (at most one bucket slower than the client: a worker sees
// only the inner part of each request, so for sub-millisecond cache
// hits its buckets sit below the client's).
// It returns one line per class and the disagreements.
func crossCheck(samples []sample, router, workers scrape) (lines, errs []string) {
	byClass := map[string][]time.Duration{}
	for _, s := range samples {
		if s.ok() {
			byClass[s.class] = append(byClass[s.class], s.service())
		}
	}
	var classes []string
	for c := range byClass {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, class := range classes {
		ds := byClass[class]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		rh := router.hist("rp_fleet_request_seconds", class)
		wh := workers.hist("rp_serve_request_seconds", class)
		if rh == nil {
			errs = append(errs, fmt.Sprintf("router has no %s histogram for %d client requests", class, len(ds)))
			continue
		}
		line := fmt.Sprintf("server-truth %-20s n=%-6d", class, len(ds))
		for _, p := range []int{50, 99} {
			c := chaosPct(ds, p)
			ri, rb := rh.quantileBucket(float64(p) / 100)
			ci := rh.bucketIndex(c.Seconds())
			// At p99 the client may trail the router: both share two CPUs
			// with the workers, and a reply waits for the client goroutine
			// to be scheduled, outside any server histogram. A router tail
			// above the client's is a disagreement either way.
			if d := ri - ci; d > 1 || (d < -1 && p == 50) {
				errs = append(errs, fmt.Sprintf("%s p%d: client %v is bucket %d, router reports bucket %d (≤%gs)", class, p, c, ci, ri, rb))
			}
			line += fmt.Sprintf(" p%d client=%.3fms router≤%gs", p, ms(c), rb)
			if wh != nil {
				wi, wb := wh.quantileBucket(float64(p) / 100)
				if wi > ci+1 {
					errs = append(errs, fmt.Sprintf("%s p%d: client %v is bucket %d, workers report bucket %d (≤%gs)", class, p, c, ci, wi, wb))
				}
				line += fmt.Sprintf(" worker≤%gs", wb)
			}
		}
		lines = append(lines, line)
	}
	return lines, errs
}
