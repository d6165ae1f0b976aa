package main

// Tracing for the per-layer run. Spans are recorded by the benchmark
// itself, never inside the program: around the router's and the
// workers' HTTP handlers, and around direct calls into each layer's
// public functions. Spans stay in memory and are reduced to per-layer
// figures when the run ends.

import (
	"context"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"remotepeering/internal/core"
	"remotepeering/internal/econ"
	"remotepeering/internal/lg"
	"remotepeering/internal/netflow"
	"remotepeering/internal/obs"
	"remotepeering/internal/offload"
	"remotepeering/internal/registry"
	"remotepeering/internal/spread"
	"remotepeering/internal/worldgen"
)

// reqHeader carries a router span's id on the router's requests to its
// workers, so worker spans join the client request that caused them.
const reqHeader = "X-Bench-Req"

type spanKey struct{}

// routerSpan is one client request as the router handler served it.
type routerSpan struct {
	id         int64
	class      string
	start, end time.Time
	status     int
}

// workerSpan is one router-to-worker leg as the worker handler served
// it: a forward, a hedge, or a fan-out slice.
type workerSpan struct {
	req        int64
	class      string
	start, end time.Time
	status     int
	cache      string
}

// tracer records handler spans while on is set. A traced run switches
// tracing on and off in turns across its window and logs each switch,
// so its traced requests can be compared with its untraced ones.
type tracer struct {
	on     atomic.Bool
	nextID atomic.Int64

	mu       sync.Mutex
	routers  []routerSpan
	workers  []workerSpan
	switches []traceSwitch // in time order
}

// traceSwitch is one change of the tracing state.
type traceSwitch struct {
	at time.Time
	on bool
}

// set switches tracing on or off; it does nothing on an untraced run's
// nil tracer.
func (t *tracer) set(on bool) {
	if t == nil || t.on.Load() == on {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.on.Store(on)
	t.switches = append(t.switches, traceSwitch{time.Now(), on})
}

// alternate switches tracing every turn, starting untraced, until the
// returned stop is called.
func (t *tracer) alternate(turn time.Duration) (stop func()) {
	if t == nil {
		return func() {}
	}
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tk := time.NewTicker(turn)
		defer tk.Stop()
		for on := true; ; on = !on {
			select {
			case <-tk.C:
				t.set(on)
			case <-done:
				t.set(false)
				return
			}
		}
	}()
	return func() { close(done); <-exited }
}

// tracedAt reports whether tracing was on at instant at.
func (t *tracer) tracedAt(at time.Time) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	i := sort.Search(len(t.switches), func(i int) bool { return t.switches[i].at.After(at) })
	return i > 0 && t.switches[i-1].on
}

// statusWriter captures the status a handler writes.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.status == 0 {
		w.status = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return w.ResponseWriter.Write(b)
}

// router wraps the router's handler with a span per client request.
func (t *tracer) router(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sp := routerSpan{id: t.nextID.Add(1), class: obs.EndpointClass(r), start: time.Now()}
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r.WithContext(context.WithValue(r.Context(), spanKey{}, sp.id)))
		sp.end, sp.status = time.Now(), sw.status
		t.mu.Lock()
		t.routers = append(t.routers, sp)
		t.mu.Unlock()
	})
}

// worker wraps a worker's handler with a span per router leg.
func (t *tracer) worker(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		if err != nil || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		sp := workerSpan{req: id, class: obs.EndpointClass(r), start: time.Now()}
		sw := &statusWriter{ResponseWriter: w}
		h.ServeHTTP(sw, r)
		sp.end, sp.status, sp.cache = time.Now(), sw.status, w.Header().Get("X-Cache")
		t.mu.Lock()
		t.workers = append(t.workers, sp)
		t.mu.Unlock()
	})
}

// tracingTransport tags the router's outbound requests with the id of
// the client request they serve.
type tracingTransport struct{ base http.RoundTripper }

func (tt tracingTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if id, ok := req.Context().Value(spanKey{}).(int64); ok {
		req = req.Clone(req.Context())
		req.Header.Set(reqHeader, strconv.FormatInt(id, 10))
	}
	return tt.base.RoundTrip(req)
}

// handlerFigures reduces the handler spans to the fleet and serve
// figures: forward overhead (router span minus the longest worker leg
// that finished inside it) split by the leg's cache outcome, and the
// worker's own time on hits.
func (t *tracer) handlerFigures() (fwdHit, fwdMiss, serveHit []float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	legs := map[int64][]workerSpan{}
	for _, w := range t.workers {
		legs[w.req] = append(legs[w.req], w)
		if w.cache == "hit" {
			serveHit = append(serveHit, ms(w.end.Sub(w.start)))
		}
	}
	for _, r := range t.routers {
		var longest time.Duration
		cache := ""
		for _, w := range legs[r.id] {
			if w.end.After(r.end) || w.status == 499 {
				continue // a cancelled hedge loser
			}
			if d := w.end.Sub(w.start); d > longest {
				longest = d
			}
			if w.cache == "miss" || cache == "" {
				cache = w.cache
			}
		}
		over := ms(r.end.Sub(r.start) - longest)
		switch cache {
		case "hit":
			fwdHit = append(fwdHit, over)
		case "miss":
			fwdMiss = append(fwdMiss, over)
		}
	}
	return fwdHit, fwdMiss, serveHit
}

// layerSet collects per-layer figures: timed spans (reported as their
// median, in ms) and values set directly.
type layerSet struct {
	spans  map[string][]float64
	values map[string]float64
}

func newLayerSet() *layerSet {
	return &layerSet{spans: map[string][]float64{}, values: map[string]float64{}}
}

// time runs fn inside a span named after the layer function it calls.
func (ls *layerSet) time(name string, fn func() error) error {
	t0 := time.Now()
	err := fn()
	ls.spans[name] = append(ls.spans[name], ms(time.Since(t0)))
	return err
}

func (ls *layerSet) addSpan(name string, v float64) { ls.spans[name] = append(ls.spans[name], v) }

func (ls *layerSet) set(name string, v float64) { ls.values[name] = v }

// value returns the named figure: a set value, or a span median.
func (ls *layerSet) value(name string) float64 {
	if v, ok := ls.values[name]; ok {
		return v
	}
	return median(ls.spans[name])
}

// replayStages replays a what-if's baseline cell over w through each
// layer's public function, in the order the scenario runner calls them:
// clone, spread campaign (netsim runs, looking-glass merge, detector),
// detector alone, traffic, offload study, greedy expansion, decay fit.
func replayStages(ctx context.Context, w *worldgen.World, ls *layerSet) error {
	var cw *worldgen.World
	ls.time("worldgen.clone_ms", func() error { cw = w.Clone(); return nil })
	hasTargets := make([]bool, cw.NumStudied())
	for _, rec := range cw.Ifaces {
		hasTargets[rec.IXPIndex] = true
	}
	var live []int
	for i, ok := range hasTargets {
		if ok {
			live = append(live, i)
		}
	}
	var sp *spread.Result
	if err := ls.time("spread.run_ms", func() (err error) {
		sp, err = spread.RunCtx(ctx, cw, spread.Options{
			Seed: 2, IXPs: live,
			Campaign: lg.Config{Duration: campaignDays * 24 * time.Hour},
		})
		return err
	}); err != nil {
		return fmt.Errorf("spread: %w", err)
	}
	ls.addSpan("spread.observations", float64(sp.Observations))
	if err := ls.time("core.analyze_ms", func() error {
		_, err := core.Analyze(sp.Raw, registry.FromWorld(cw), sp.Campaign.Duration, sp.Detector)
		return err
	}); err != nil {
		return fmt.Errorf("detector: %w", err)
	}
	var ds *netflow.Dataset
	if err := ls.time("netflow.collect_ms", func() (err error) {
		ds, err = netflow.Collect(cw, netflow.Config{Seed: 3, Intervals: intervals})
		return err
	}); err != nil {
		return fmt.Errorf("traffic: %w", err)
	}
	var study *offload.Study
	if err := ls.time("offload.study_ms", func() (err error) {
		study, err = offload.NewStudyOptions(cw, ds, offload.Options{Cones: offload.NewConeCache()})
		return err
	}); err != nil {
		return fmt.Errorf("offload: %w", err)
	}
	var steps []offload.GreedyStep
	ls.time("offload.greedy_ms", func() error { steps = study.Greedy(offload.GroupAll, greedyDepth); return nil })
	remaining := make([]float64, len(steps))
	for i, s := range steps {
		remaining[i] = s.Remaining()
	}
	in, out := ds.TransitTotals()
	return ls.time("econ.fit_ms", func() error {
		_, err := econ.FitBFromRemaining(remaining, in+out)
		return err
	})
}

// perLayer lists every per-layer metric of the traced run, with its
// unit and its better direction, in report order.
var perLayer = []struct{ name, unit, better string }{
	{"fleet.forward_hit_ms", "ms", "lower"},
	{"fleet.forward_miss_ms", "ms", "lower"},
	{"fleet.hedges_per_req", "1/req", "lower"},
	{"fleet.hedge_win_ratio", "ratio", "higher"},
	{"fleet.fanouts", "count", "higher"},
	{"fleet.failovers", "count", "lower"},
	{"serve.hit_ms", "ms", "lower"},
	{"serve.cache_hit_ratio", "ratio", "higher"},
	{"serve.queue_wait_ms", "ms", "lower"},
	{"serve.evaluations_per_miss", "1/req", "lower"},
	{"serve.shed", "count", "lower"},
	{"catalog.acquire_ms", "ms", "lower"},
	{"catalog.attaches_per_req", "1/req", "lower"},
	{"catalog.evictions", "count", "lower"},
	{"snapshot.attach_ms", "ms", "lower"},
	{"snapshot.materialize_ms", "ms", "lower"},
	{"snapshot.save_flat_ms", "ms", "lower"},
	{"snapshot.checkpoint_ms", "ms", "lower"},
	{"worldgen.generate_ms", "ms", "lower"},
	{"worldgen.clone_ms", "ms", "lower"},
	{"scenario.run_ms", "ms", "lower"},
	{"scenario.cells", "count", "higher"},
	{"spread.run_ms", "ms", "lower"},
	{"spread.observations", "count", "higher"},
	{"core.analyze_ms", "ms", "lower"},
	{"netflow.collect_ms", "ms", "lower"},
	{"offload.study_ms", "ms", "lower"},
	{"offload.greedy_ms", "ms", "lower"},
	{"econ.fit_ms", "ms", "lower"},
	{"tick.advance_ms", "ms", "lower"},
	{"tick.server_ms", "ms", "lower"},
	{"journal.commits", "count", "higher"},
	{"journal.fsync_ms", "ms", "lower"},
	{"runtime.alloc_mb_per_req", "MB/req", "lower"},
	{"runtime.gc_cycles_per_req", "1/req", "lower"},
	{"runtime.gc_pause_ms", "ms", "lower"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"trace.overhead_p50_ms", "ms", "lower"},
	{"trace.overhead_tail_ms", "ms", "lower"},
}
