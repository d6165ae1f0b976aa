package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"remotepeering/internal/scenario"
	"remotepeering/internal/serve"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/worldgen"
)

// coldWhatif is a closed loop of one client sending distinct what-if
// grids, so every answer is a cold evaluation: catalog attach and evict,
// fan-out, hedging, and the whole scenario pipeline.
type coldWhatif struct {
	seed   int64
	gen    *coldGen
	client *http.Client

	retry *whatifQuery // a refused query, asked again next

	mu   sync.Mutex
	done []coldAnswer
}

// coldAnswer is one completed cold what-if, kept for the answer oracle.
type coldAnswer struct {
	q      whatifQuery
	body   []byte
	fanout bool
}

func newColdWhatif(seed int64) *coldWhatif {
	return &coldWhatif{seed: seed, gen: newColdGen(seed, 4), client: newClient(1)}
}

func (w *coldWhatif) spec() clusterSpec                  { return clusterSpec{worlds: 4, resident: 2} }
func (w *coldWhatif) clients() []*http.Client            { return []*http.Client{w.client} }
func (w *coldWhatif) warm(context.Context, *bench) error { return nil }

func (w *coldWhatif) window(ctx context.Context, b *bench, dur time.Duration) (*figures, error) {
	cells, fanouts := 0, 0
	cpu0, t0 := cpuTime(), time.Now()
	deadline := t0.Add(dur)
	samples := closedLoop(ctx, deadline, 0, func(ctx context.Context, _ int, timed func()) (string, int) {
		var q whatifQuery
		if w.retry != nil {
			q, w.retry = *w.retry, nil
		} else {
			q = w.gen.next()
		}
		// A traced run alternates tracing by whole blocks of the stream,
		// so traced and untraced requests carry the same cost mix. The
		// switch for the next request comes before it is sent.
		defer func() {
			next := w.gen.nextBlock()
			if w.retry != nil {
				next = w.retry.block
			}
			b.tr.set(next%2 == 1)
		}()
		digest := b.c.worlds[q.world].digest
		rep, err := fetch(ctx, w.client, http.MethodGet, b.url(q.path(digest)))
		timed()
		if err != nil {
			return "GET /v1/whatif", 0
		}
		if rep.status == http.StatusTooManyRequests {
			// A refused query is asked again after the server's
			// Retry-After, so every run answers a prefix of the same
			// query sequence; the refusal counts as a failed request.
			w.retry = &q
			wait, _ := strconv.Atoi(rep.header.Get("Retry-After"))
			select {
			case <-time.After(min(time.Duration(wait)*time.Second, time.Until(deadline))):
			case <-ctx.Done():
			}
		}
		if rep.status == http.StatusOK {
			fan := rep.header.Get("X-Fleet-Fanout") == "1"
			w.verify(b, q, digest, rep, fan)
			cells += q.cells()
			if fan {
				fanouts++
			}
		}
		return "GET /v1/whatif", rep.status
	})
	elapsed, cpu := time.Since(t0), cpuTime()-cpu0
	lat := completedLatencies(samples)
	completed := int64(len(samples)) - failedCount(samples)
	f := &figures{
		p50:        quantile(lat, 0.5),
		throughput: float64(cells) / elapsed.Seconds(),
		cells:      cells, samples: samples,
		split: func(keep func(sample) bool) (time.Duration, time.Duration) {
			kept := completedLatencies(filter(samples, keep))
			return quantile(kept, 0.5), upperHalfMean(kept)
		},
	}
	if completed > 0 {
		f.cpuPerReq = cpu / time.Duration(completed)
	}
	f.report = []string{
		percentileLine("whatif_cold_p50_ms", f.p50, len(samples)),
		percentileLine("whatif_cold_p75_ms", quantile(lat, 0.75), len(samples)),
		percentileLine("whatif_cold_slow_half_ms", upperHalfMean(lat), len(lat)-len(lat)/2),
		fmt.Sprintf("%-26s %12.4f cells/s (%d cells)", "whatif_cold_cells_per_s", f.throughput, cells),
		fmt.Sprintf("%-26s %12.4f s (%d requests, %d fanned out)", "whatif_cold_cpu_s_per_req", f.cpuPerReq.Seconds(), completed, fanouts),
	}
	return f, nil
}

// verify checks one cold answer's envelope: a miss, the query's content
// address, the right world, and one cell per grid coordinate.
func (w *coldWhatif) verify(b *bench, q whatifQuery, digest string, rep reply, fan bool) {
	if c := rep.header.Get("X-Cache"); c != "miss" {
		b.fail("cold-whatif: %s answered X-Cache %q; every cold query is distinct", q.key(), c)
	}
	var env struct {
		ID     string `json:"id"`
		Digest string `json:"digest"`
		Report struct {
			Cells []json.RawMessage `json:"cells"`
		} `json:"report"`
	}
	if err := json.Unmarshal(rep.body, &env); err != nil {
		b.fail("cold-whatif: undecodable body for %s: %v", q.key(), err)
		return
	}
	if want := serve.QueryID(digest, q.request().Canonical()); env.ID != want || env.Digest != digest {
		b.fail("cold-whatif: %s answered id %s digest %.12s, want id %s digest %.12s", q.key(), env.ID, env.Digest, want, digest)
	}
	if len(env.Report.Cells) != q.cells() {
		b.fail("cold-whatif: %s answered %d cells, want %d", q.key(), len(env.Report.Cells), q.cells())
	}
	w.mu.Lock()
	w.done = append(w.done, coldAnswer{q: q, body: rep.body, fanout: fan})
	w.mu.Unlock()
}

// oracleSample draws the answers the oracle recomputes: one fanned-out
// grid and one single-owner grid, chosen by the seed.
func (w *coldWhatif) oracleSample() []coldAnswer {
	r := newRand(w.seed, "oracle")
	var fan, single []coldAnswer
	for _, a := range w.done {
		if a.fanout {
			fan = append(fan, a)
		} else {
			single = append(single, a)
		}
	}
	var out []coldAnswer
	if len(fan) > 0 {
		out = append(out, fan[r.IntN(len(fan))])
	}
	for _, i := range r.Perm(len(single)) {
		if len(out) == 2 {
			break
		}
		out = append(out, single[i])
	}
	return out
}

// check recomputes a seeded sample of the answers in-process — the
// scenario runner over the same flat snapshot, rendered through the
// server's own encoder — and requires each to be byte-identical to the
// HTTP body, fanned-out grids included.
func (w *coldWhatif) check(ctx context.Context, b *bench) error {
	sample := w.oracleSample()
	if len(sample) == 0 || !sample[0].fanout {
		b.fail("cold-whatif: no fanned-out grid completed, so the oracle cannot check fan-out")
	}
	worlds := map[int]*worldgen.World{}
	for _, a := range sample {
		if worlds[a.q.world] != nil {
			continue
		}
		att, err := snapshot.Attach(b.c.worlds[a.q.world].path)
		if err != nil {
			return err
		}
		defer att.Close()
		snap, err := att.Snapshot()
		if err != nil {
			return err
		}
		worlds[a.q.world] = snap.World
	}
	for _, a := range sample {
		digest := b.c.worlds[a.q.world].digest
		body, err := recompute(ctx, b.ls, worlds[a.q.world], digest, a.q.request())
		if err != nil {
			return err
		}
		if !bytes.Equal(body, a.body) {
			b.fail("cold-whatif oracle: %s (fanned out: %v) differs from the in-process recomputation", a.q.key(), a.fanout)
		}
	}
	return nil
}

// recompute evaluates a what-if in-process exactly as a worker does and
// renders it with the worker's encoder.
func recompute(ctx context.Context, ls *layerSet, w *worldgen.World, digest string, req serve.WhatifRequest) ([]byte, error) {
	grid, err := scenario.ParseGrid(req.Scenarios)
	if err != nil {
		return nil, err
	}
	grid.Seeds = req.Seeds
	id := serve.QueryID(digest, req.Canonical())
	opts := scenario.Options{
		MeasureSeed: req.MeasureSeed, TrafficSeed: req.TrafficSeed,
		CoverageIXPs: req.K, GreedyIXPs: req.Greedy, Intervals: req.Intervals,
		FaultKey: id,
	}
	opts.Campaign.Duration = time.Duration(req.Days) * 24 * time.Hour
	var rep *scenario.Report
	if err := ls.time("scenario.run_ms", func() (err error) {
		rep, err = scenario.RunCtx(ctx, w, grid, opts)
		return err
	}); err != nil {
		return nil, err
	}
	return serve.MarshalBody(serve.WhatifResponse{ID: id, Digest: digest, Report: rep.JSONReport()})
}

// layers replays the baseline cell of two sampled grids' worlds stage by
// stage.
func (w *coldWhatif) layers(ctx context.Context, b *bench, ls *layerSet) error {
	seen := map[int]bool{}
	for _, a := range w.oracleSample() {
		if seen[a.q.world] || len(seen) == 2 {
			continue
		}
		seen[a.q.world] = true
		att, err := snapshot.Attach(b.c.worlds[a.q.world].path)
		if err != nil {
			return err
		}
		snap, err := att.Snapshot()
		if err == nil {
			err = replayStages(ctx, snap.World, ls)
		}
		att.Close()
		if err != nil {
			return err
		}
	}
	return nil
}
