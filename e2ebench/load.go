package main

import (
	"context"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// sample is one request as the load generator saw it. An open-loop
// request is due at a scheduled instant, released when the dispatcher
// wakes for it, and sent when a connection is free; a closed-loop
// request is due, released and sent at once.
type sample struct {
	class  string
	status int // 0 on a transport error
	due    time.Time
	woke   time.Time
	sent   time.Time
	done   time.Time
}

// ok reports whether the request completed with a 2xx. A refused (429),
// failed (5xx) or unreachable request is a failure and misses every
// latency limit.
func (s sample) ok() bool { return s.status/100 == 2 }

// latency is timed from the request's release, so a request that waits
// for a free connection — the backlog a slow server builds — is charged
// the wait. The dispatcher's own wake-up delay is left out: it is the
// generator's error, which on two CPUs shared with the servers the
// scheduler sometimes stretches to milliseconds, and late() reports it.
func (s sample) latency() time.Duration { return s.done.Sub(s.woke) }

// service is the send-to-reply time, the interval a server can observe.
func (s sample) service() time.Duration { return s.done.Sub(s.sent) }

// late is how far behind its schedule the generator sent the request.
func (s sample) late() time.Duration { return s.sent.Sub(s.due) }

// reply is one buffered HTTP response.
type reply struct {
	status int
	body   []byte
	header http.Header
}

// newClient returns a client that opens at most conns connections.
func newClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     90 * time.Second,
			DisableCompression:  true,
		},
		Timeout: 60 * time.Second,
	}
}

// fetch sends one request and buffers the reply.
func fetch(ctx context.Context, c *http.Client, method, url string) (reply, error) {
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return reply{}, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return reply{}, err
	}
	return reply{status: resp.StatusCode, body: body, header: resp.Header}, nil
}

// request is the unit the loops drive: it sends request i and returns
// its class and status (0 on a transport error). Answer checks run
// inside it, after the reply is timed.
type request func(ctx context.Context, i int, timed func()) (class string, status int)

// openLoop sends n requests, request i due at start + i/rate, over conns
// sender goroutines. A dispatcher hands each request to a free sender at
// its due instant; when every sender is busy, due requests wait and the
// wait counts in their latency. Dispatch stops at ctx's end or at
// hardStop, whichever comes first; requests not sent by then are not
// attempted.
func openLoop(ctx context.Context, rate float64, n, conns int, hardStop time.Duration, first int, do request) []sample {
	start := time.Now().Add(2 * time.Millisecond)
	stopAt := start.Add(hardStop)
	interval := time.Duration(float64(time.Second) / rate)
	out := make([]sample, n)
	woke := make([]time.Time, n) // written before the hand-off, read after
	due := make(chan int)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				s := sample{due: start.Add(time.Duration(i) * interval), woke: woke[i], sent: time.Now()}
				s.class, s.status = do(ctx, first+i, func() { s.done = time.Now() })
				if s.done.IsZero() {
					s.done = time.Now()
				}
				out[i] = s
			}
		}()
	}
	timer := newPreciseTimer()
	defer timer.close()
	for i := 0; i < n && ctx.Err() == nil; i++ {
		timer.sleepUntil(start.Add(time.Duration(i) * interval))
		if woke[i] = time.Now(); woke[i].After(stopAt) {
			break
		}
		due <- i
	}
	close(due)
	wg.Wait()
	sent := out[:0]
	for _, s := range out {
		if !s.sent.IsZero() {
			sent = append(sent, s)
		}
	}
	return sent
}

// closedLoop sends requests one after another on the calling goroutine
// until the deadline, each the moment the previous one completed.
func closedLoop(ctx context.Context, deadline time.Time, first int, do request) []sample {
	var out []sample
	for i := first; time.Now().Before(deadline) && ctx.Err() == nil; i++ {
		s := sample{sent: time.Now()}
		s.due, s.woke = s.sent, s.sent
		s.class, s.status = do(ctx, i, func() { s.done = time.Now() })
		if s.done.IsZero() {
			s.done = time.Now()
		}
		out = append(out, s)
	}
	return out
}

// durations extracts one duration per sample, sorted ascending.
func durations(ss []sample, f func(sample) time.Duration) []time.Duration {
	out := make([]time.Duration, len(ss))
	for i, s := range ss {
		out[i] = f(s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile is the nearest-rank q-quantile of ascending durations: a
// measured value, never an interpolation. Zero for an empty set.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(q*float64(len(sorted))+0.999999999) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// ms renders a duration in fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of a float slice (nearest-rank lower median; 0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// filter returns the samples keep accepts.
func filter(ss []sample, keep func(sample) bool) []sample {
	var out []sample
	for _, s := range ss {
		if keep(s) {
			out = append(out, s)
		}
	}
	return out
}

// failedCount counts samples that did not complete with a 2xx.
func failedCount(ss []sample) int64 {
	var n int64
	for _, s := range ss {
		if !s.ok() {
			n++
		}
	}
	return n
}

// upperHalfMean is the mean of the slower half of ascending durations: a
// tail statistic that a run of a dozen cold what-ifs can repeat, where
// any single high percentile of them moves with which requests a hedge
// happened to slow.
func upperHalfMean(sorted []time.Duration) time.Duration {
	upper := sorted[len(sorted)/2:]
	if len(upper) == 0 {
		return 0
	}
	var sum time.Duration
	for _, d := range upper {
		sum += d
	}
	return sum / time.Duration(len(upper))
}

// secondP99 is the median, over the one-second slices of an open-loop
// phase, of each slice's p99 latency: the tail a typical second shows.
// One scheduler or garbage-collector stall moves a whole-phase p99 by
// milliseconds between identical runs; it moves one slice of this.
func secondP99(ss []sample) time.Duration {
	if len(ss) == 0 {
		return 0
	}
	slices := map[int64][]sample{}
	for _, s := range ss {
		k := int64(s.due.Sub(ss[0].due) / time.Second)
		slices[k] = append(slices[k], s)
	}
	var p99s []float64
	for _, sl := range slices {
		if lat := completedLatencies(sl); len(lat) > 0 {
			p99s = append(p99s, float64(quantile(lat, 0.99)))
		}
	}
	return time.Duration(median(p99s))
}

// completedLatencies sorts the latencies of the requests that completed;
// failures are reported as a count, and miss every latency limit (see
// meets).
func completedLatencies(ss []sample) []time.Duration {
	var out []time.Duration
	for _, s := range ss {
		if s.ok() {
			out = append(out, s.latency())
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
