// Command e2ebench is the repository's end-to-end benchmark. It starts a
// fleet router and two serve workers in this process, on loopback HTTP,
// over flat snapshots in per-worker catalogs; drives one workload
// through the router with at most two client connections; checks every
// answer; and prints one JSON result line last on standard output.
//
// Usage, from the repository root (run.sh builds the binary first):
//
//	bash e2ebench/run.sh --workload cold-whatif --seed 1 --seconds 27 --trace 0
//
// Workloads are cold-whatif, warm-mix and tick-under-load; README.md
// describes each, its metrics and its checks. --trace 1 runs the same
// workload with spans recorded around the handlers and around direct
// layer calls, and reports per-layer metrics instead of end-to-end ones.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"remotepeering/internal/obs"
	"remotepeering/internal/snapshot"
)

// setupReps is how many times each run sets the fleet up; setup_s
// reports the median.
const setupReps = 7

type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	workdir  string
}

// figures are one timed window's end-to-end results.
type figures struct {
	p50         time.Duration // headline latency
	throughput  float64       // per second
	cpuPerReq   time.Duration // process CPU per completed request, or per committed tick
	latenessP99 time.Duration // open-loop generator lateness (0 for closed loops)
	cells       int           // what-if grid cells answered
	samples     []sample      // every request of the window
	report      []string      // the workload's named metrics, one per line
	// split recomputes the headline latency and the workload's tail over
	// the headline requests keep accepts.
	split func(keep func(sample) bool) (p50, tail time.Duration)
}

// workload is one of the benchmark's traffic mixes.
type workload interface {
	spec() clusterSpec
	// clients returns the load connections: at most two in total.
	clients() []*http.Client
	// warm runs the one-shot part of set-up: pre-warming caches or
	// waking a live world.
	warm(ctx context.Context, b *bench) error
	// window drives the timed load for dur.
	window(ctx context.Context, b *bench, dur time.Duration) (*figures, error)
	// check verifies the answers once the load has stopped.
	check(ctx context.Context, b *bench) error
	// layers makes the workload's direct layer calls (traced run only).
	layers(ctx context.Context, b *bench, ls *layerSet) error
}

// bench is one run's shared state.
type bench struct {
	c        *cluster
	tr       *tracer
	ls       *layerSet // direct-call spans; reported only by a traced run
	dir      string
	mu       sync.Mutex
	problems []string
}

// fail records a correctness failure; the run then reports correct=false.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if len(b.problems) < 50 {
		b.problems = append(b.problems, fmt.Sprintf(format, args...))
	}
}

// url renders a path against the router.
func (b *bench) url(path string) string { return b.c.url + path }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func newWorkload(name string, seed int64) (workload, error) {
	switch name {
	case "cold-whatif":
		return newColdWhatif(seed), nil
	case "warm-mix":
		return newWarmMix(seed), nil
	case "tick-under-load":
		return newTickLoad(seed), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want cold-whatif, warm-mix or tick-under-load)", name)
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.workload, "workload", "", "cold-whatif, warm-mix or tick-under-load")
	flag.Int64Var(&o.seed, "seed", 1, "input seed: the same seed drives the same requests")
	flag.IntVar(&o.seconds, "seconds", 27, "length of the timed window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records spans and reports per-layer metrics")
	flag.StringVar(&o.workdir, "workdir", ".bench_build/run", "scratch directory for snapshots and journals, removed on exit")
	flag.Parse()
	o.trace = trace == 1
	if o.seconds < 3 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "e2ebench: want --seconds >= 3 and --trace 0 or 1")
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	res, lines, err := run(ctx, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	out := bufio.NewWriter(os.Stdout)
	for _, l := range lines {
		fmt.Fprintln(out, l)
	}
	js, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Fprintln(out, string(js))
	out.Flush()
	if !res.Correct {
		os.Exit(3)
	}
}

// run sets up, drives and checks one workload and assembles its result.
func run(ctx context.Context, o options) (*result, []string, error) {
	wl, err := newWorkload(o.workload, o.seed)
	if err != nil {
		return nil, nil, err
	}
	dir, err := filepath.Abs(filepath.Join(o.workdir, strconv.Itoa(os.Getpid())))
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, err
	}
	defer os.RemoveAll(dir)

	b := &bench{ls: newLayerSet(), dir: dir}
	if o.trace {
		b.tr = &tracer{}
	}
	var lines []string
	say := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	spec := wl.spec()
	spec.tracer = b.tr

	// The generated inputs are a pure function of the seed.
	digest := inputDigest(o.workload, o.seed, spec.worlds)
	if again := inputDigest(o.workload, o.seed, spec.worlds); again != digest {
		b.fail("inputs: seed %d generated two different request sequences", o.seed)
	}
	if other := inputDigest(o.workload, o.seed+1, spec.worlds); other == digest {
		b.fail("inputs: seeds %d and %d generated the same request sequence", o.seed, o.seed+1)
	}
	say("workload %s seed %d: inputs sha256 %s", o.workload, o.seed, digest)

	// Set-up runs setupReps times; the last fleet is kept.
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		c, st, err := startCluster(ctx, spec, filepath.Join(dir, fmt.Sprintf("setup%d", rep)))
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, st.total.Seconds())
		for i := range st.generate {
			b.ls.addSpan("worldgen.generate_ms", ms(st.generate[i]))
			b.ls.addSpan("snapshot.save_flat_ms", ms(st.save[i]))
		}
		if rep < setupReps-1 {
			c.close()
			os.RemoveAll(c.dir)
			continue
		}
		b.c = c
	}
	defer b.c.close()
	defer func() {
		for _, cl := range wl.clients() {
			cl.CloseIdleConnections()
		}
	}()
	w0 := time.Now()
	if err := wl.warm(ctx, b); err != nil {
		return nil, nil, fmt.Errorf("warm-up: %w", err)
	}
	warmed := time.Since(w0)
	setupS := median(setups) + warmed.Seconds()
	say("setup_s %.4f s (median fleet set-up %.4f s of %v, plus warm-up %.4f s)", setupS, median(setups), setups, warmed.Seconds())

	// The timed window. A traced run switches tracing on and off in
	// turns within it (see tracer), so the difference between its traced
	// and untraced requests shows the tracing overhead.
	scr := newScraper(b.c)
	before, err := scr.all(ctx)
	if err != nil {
		return nil, nil, err
	}
	var ms0, ms1 runtime.MemStats
	resetPeakRSS()
	runtime.ReadMemStats(&ms0)
	phase := time.Now()
	fig, err := wl.window(ctx, b, time.Duration(o.seconds)*time.Second)
	if err != nil {
		return nil, nil, err
	}
	runtime.ReadMemStats(&ms1)
	b.tr.set(false)
	after, err := scr.all(ctx)
	if err != nil {
		return nil, nil, err
	}

	all := fig.samples
	res := &result{Metrics: map[string]metricValue{}}
	outcomes := map[string]int{}
	for _, s := range all {
		res.Attempted++
		if !s.ok() {
			res.Failed++
		}
		outcomes[fmt.Sprintf("%s %d", s.class, s.status)]++
	}
	lines = append(lines, fig.report...)
	say("attempted %d failed %d", res.Attempted, res.Failed)
	for _, k := range sortedKeys(outcomes) {
		say("  %-26s %d", k, outcomes[k])
	}

	rt, wk := after.router.sub(before.router), after.workers().sub(before.workers())
	say("router: %.0f forwards, %.0f hedges (%.0f won), %.0f fan-outs, %.0f failovers; workers: %.0f evaluations, %.0f attaches, %.0f evictions",
		rt.get("rp_fleet_forwards_total"), rt.get("rp_fleet_hedges_total"), rt.get("rp_fleet_hedge_wins_total"),
		rt.get("rp_fleet_fanouts_total"), rt.get("rp_fleet_failovers_total"), wk.get("rp_serve_evaluations_total"),
		wk.get("rp_catalog_attaches_total"), wk.get("rp_catalog_evictions_total"))

	// Server truth: the router's and workers' own histograms.
	cross, errs := crossCheck(all, rt, wk)
	lines = append(lines, cross...)
	for _, e := range errs {
		b.fail("server-truth: %s", e)
	}

	if err := wl.check(ctx, b); err != nil {
		return nil, nil, fmt.Errorf("checks: %w", err)
	}

	rss := peakRSSMB()
	if o.trace {
		if err := tracedLayers(ctx, b, wl, fig, before, after, &ms0, &ms1, phase); err != nil {
			return nil, nil, err
		}
		for _, m := range perLayer {
			v := b.ls.value(m.name)
			res.Metrics[m.name] = metricValue{Value: v, Unit: m.unit}
			say("layer %-28s %12.4f %s", m.name, v, m.unit)
		}
	} else {
		res.Metrics["setup_s"] = metricValue{setupS, "s"}
		res.Metrics["rss_peak_mb"] = metricValue{rss, "MB"}
		res.Metrics["latency_p50_ms"] = metricValue{ms(fig.p50), "ms"}
		res.Metrics["throughput_per_s"] = metricValue{fig.throughput, "1/s"}
		res.Metrics["cpu_ms_per_req"] = metricValue{ms(fig.cpuPerReq), "ms"}
	}
	say("rss_peak_mb %.1f MB", rss)
	say("runtime: %d GC cycles, %.1f ms paused, %.0f MB allocated in the timed window; %.0f MB live at its start",
		ms1.NumGC-ms0.NumGC, float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20), float64(ms0.HeapAlloc)/(1<<20))

	res.Correct = len(b.problems) == 0
	for _, is := range b.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", is)
	}
	return res, lines, nil
}

// tracedLayers assembles the per-layer figures of a traced run from the
// handler spans of its traced turns, the servers' counters over the
// window, the flight recorders, runtime statistics, and the workload's
// direct layer calls.
func tracedLayers(ctx context.Context, b *bench, wl workload, fig *figures, before, after scrapes, ms0, ms1 *runtime.MemStats, phase time.Time) error {
	ls := b.ls
	hit, miss, serveHit := b.tr.handlerFigures()
	ls.spans["fleet.forward_hit_ms"] = hit
	ls.spans["fleet.forward_miss_ms"] = miss
	ls.spans["serve.hit_ms"] = serveHit

	reqs := float64(len(fig.samples))
	per := func(v float64) float64 {
		if reqs == 0 {
			return 0
		}
		return v / reqs
	}
	rt := after.router.sub(before.router)
	hedges := rt.get("rp_fleet_hedges_total")
	ls.set("fleet.hedges_per_req", per(hedges))
	ls.set("fleet.hedge_win_ratio", 0)
	if hedges > 0 {
		ls.set("fleet.hedge_win_ratio", rt.get("rp_fleet_hedge_wins_total")/hedges)
	}
	ls.set("fleet.fanouts", rt.get("rp_fleet_fanouts_total"))
	ls.set("fleet.failovers", rt.get("rp_fleet_failovers_total"))

	wk := after.workers().sub(before.workers())
	hits, misses := wk.get("rp_serve_cache_hits_total"), wk.get("rp_serve_cache_misses_total")
	ls.set("serve.cache_hit_ratio", 0)
	if hits+misses > 0 {
		ls.set("serve.cache_hit_ratio", hits/(hits+misses))
	}
	ls.set("serve.evaluations_per_miss", 0)
	if misses > 0 {
		ls.set("serve.evaluations_per_miss", wk.get("rp_serve_evaluations_total")/misses)
	}
	ls.set("serve.shed", wk.get("rp_serve_shed_total"))
	ls.set("catalog.attaches_per_req", per(wk.get("rp_catalog_attaches_total")))
	ls.set("catalog.evictions", wk.get("rp_catalog_evictions_total"))
	if v, n := wk.mean("rp_tick_checkpoint_seconds", ""); n > 0 {
		ls.set("snapshot.checkpoint_ms", v)
	}
	if v, n := wk.mean("rp_tick_seconds", ""); n > 0 {
		ls.set("tick.server_ms", v)
	}
	if v, n := wk.mean("rp_journal_fsync_seconds", ""); n > 0 {
		ls.set("journal.fsync_ms", v)
	}
	ls.set("journal.commits", wk.get("rp_journal_commits_total"))

	// Queue waits and catalog acquires, from the workers' flight recorders.
	for _, w := range b.c.workers {
		recs, err := flightRecords(ctx, w.url)
		if err != nil {
			return err
		}
		for _, r := range recs {
			if r.Start.Before(phase) {
				continue
			}
			for _, sp := range r.Spans {
				switch sp.Name {
				case "queue":
					ls.addSpan("serve.queue_wait_ms", ms(sp.Dur))
				case "attach":
					ls.addSpan("catalog.acquire_ms", ms(sp.Dur))
				}
			}
		}
	}

	ls.set("runtime.alloc_mb_per_req", per(float64(ms1.TotalAlloc-ms0.TotalAlloc)/(1<<20)))
	gcs := float64(ms1.NumGC - ms0.NumGC)
	ls.set("runtime.gc_cycles_per_req", per(gcs))
	ls.set("runtime.gc_pause_ms", 0)
	if gcs > 0 {
		ls.set("runtime.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6/gcs)
	}
	ls.set("loadgen.late_p99_ms", ms(fig.latenessP99))
	ls.set("scenario.cells", float64(fig.cells))
	tracedP50, tracedTail := fig.split(func(s sample) bool { return b.tr.tracedAt(s.sent) })
	plainP50, plainTail := fig.split(func(s sample) bool { return !b.tr.tracedAt(s.sent) })
	ls.set("trace.overhead_p50_ms", ms(tracedP50-plainP50))
	ls.set("trace.overhead_tail_ms", ms(tracedTail-plainTail))

	// Snapshot attach and materialization, called directly on each world.
	for _, w := range b.c.worlds {
		for i := 0; i < 3; i++ {
			var a *snapshot.Attached
			if err := ls.time("snapshot.attach_ms", func() (err error) { a, err = snapshot.Attach(w.path); return err }); err != nil {
				return err
			}
			err := ls.time("snapshot.materialize_ms", func() error { _, err := a.Snapshot(); return err })
			a.Close()
			if err != nil {
				return err
			}
		}
	}
	return wl.layers(ctx, b, ls)
}

// flightRecords reads a worker's /debug/requests flight recorder.
func flightRecords(ctx context.Context, base string) ([]obs.Record, error) {
	rep, err := fetch(ctx, http.DefaultClient, http.MethodGet, base+"/debug/requests")
	if err != nil {
		return nil, err
	}
	var body struct {
		Requests []obs.Record `json:"requests"`
	}
	if err := json.Unmarshal(rep.body, &body); err != nil {
		return nil, fmt.Errorf("decode /debug/requests: %w", err)
	}
	return body.Requests, nil
}

// scrapes holds one /metrics scrape of the router and of each worker.
type scrapes struct {
	router scrape
	worker []scrape
}

// workers sums the workers' scrapes.
func (s scrapes) workers() scrape {
	out := scrape{}
	for _, w := range s.worker {
		out = out.add(w)
	}
	return out
}

type scraper struct {
	c      *cluster
	client *http.Client
}

func newScraper(c *cluster) *scraper {
	return &scraper{c: c, client: &http.Client{Timeout: 10 * time.Second}}
}

func (s *scraper) all(ctx context.Context) (scrapes, error) {
	var out scrapes
	var err error
	if out.router, err = scrapeMetrics(ctx, s.client, s.c.url); err != nil {
		return out, err
	}
	for _, w := range s.c.workers {
		ws, err := scrapeMetrics(ctx, s.client, w.url)
		if err != nil {
			return out, err
		}
		out.worker = append(out.worker, ws)
	}
	return out, nil
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// resetPeakRSS collects garbage, returns the free heap to the kernel and
// restarts its peak-RSS count (VmHWM), so the peak covers the timed
// window rather than set-up's transient evaluations, whose
// garbage-collection timing made the whole-run peak swing by a third
// between runs. Where clear_refs is unavailable the peak covers the
// whole run.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB is the process's peak resident set (VmHWM), in MiB; where
// /proc is unavailable it falls back to the runtime's obtained memory.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// percentileLine renders one named latency metric with its sample count.
func percentileLine(name string, d time.Duration, n int) string {
	return fmt.Sprintf("%-26s %12.4f ms (n=%d)", name, ms(d), n)
}

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
