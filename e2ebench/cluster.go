package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"remotepeering/internal/catalog"
	"remotepeering/internal/fleet"
	"remotepeering/internal/obs"
	"remotepeering/internal/serve"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/tick"
	"remotepeering/internal/worldgen"
)

// clusterSpec shapes one fleet: how many worlds, how many of them each
// worker's catalog holds at once, and whether live worlds are journaled
// on disk.
type clusterSpec struct {
	worlds   int
	resident int // worlds a catalog holds at once; 0 = all
	live     bool
	tracer   *tracer // nil: no spans recorded
}

// worldFile is one generated world saved as a flat snapshot.
type worldFile struct {
	path   string
	digest string
}

// worker is one serve node: its catalog, server, and loopback listener.
type worker struct {
	url     string
	srv     *serve.Server
	cat     *catalog.Catalog
	hs      *http.Server
	liveDir string
}

// cluster is a fleet router in front of two serve workers, all in this
// process on loopback HTTP.
type cluster struct {
	dir       string
	worlds    []worldFile
	workers   []*worker
	router    *fleet.Router
	rhs       *http.Server
	url       string
	transport *http.Transport
	tickCfg   tick.Config
	logger    *slog.Logger
}

// setupTimes records what one cluster set-up spent, by step.
type setupTimes struct {
	generate []time.Duration // worldgen.Generate, per world
	save     []time.Duration // snapshot.SaveFlatFile, per world
	total    time.Duration   // worlds through health-gated fleet
}

// tickConfig is the living-world regime of tick-under-load: the default
// seeded event stream, checkpoints every 8 ticks, and the benchmark's
// pipeline knobs.
func tickConfig() tick.Config {
	cfg := tick.DefaultConfig()
	cfg.CheckpointEvery = 8
	cfg.Pipeline.Intervals = intervals
	cfg.Pipeline.CoverageIXPs = coverageK
	cfg.Pipeline.GreedyIXPs = greedyDepth
	cfg.Pipeline.Campaign.Duration = campaignDays * 24 * time.Hour
	return cfg
}

// startCluster generates the worlds, saves them as flat snapshots, opens
// one catalog per worker over them, starts the workers and the router,
// and waits until the router sees both workers up with every world.
func startCluster(ctx context.Context, spec clusterSpec, dir string) (*cluster, setupTimes, error) {
	var st setupTimes
	t0 := time.Now()
	c := &cluster{
		dir:     dir,
		tickCfg: tickConfig(),
		logger:  slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
	}
	worldDir := filepath.Join(dir, "worlds")
	if err := os.MkdirAll(worldDir, 0o755); err != nil {
		return nil, st, err
	}
	var largest int64
	for i, ws := range worldSeeds(spec.worlds) {
		g0 := time.Now()
		w, err := worldgen.Generate(worldgen.Config{Seed: ws, LeafNetworks: leafNetworks})
		if err != nil {
			return nil, st, fmt.Errorf("generate world %d: %w", i, err)
		}
		st.generate = append(st.generate, time.Since(g0))
		path := filepath.Join(worldDir, fmt.Sprintf("world%d.flat", i))
		s0 := time.Now()
		digest, err := snapshot.SaveFlatFile(path, &snapshot.Snapshot{World: w})
		if err != nil {
			return nil, st, fmt.Errorf("save world %d: %w", i, err)
		}
		st.save = append(st.save, time.Since(s0))
		fi, err := os.Stat(path)
		if err != nil {
			return nil, st, err
		}
		c.worlds = append(c.worlds, worldFile{path: path, digest: digest})
		largest = max(largest, fi.Size())
	}
	// The worlds are near one size, so room for resident of the largest
	// never fits one more.
	budget := int64(spec.resident) * largest

	var peers []string
	for i := 0; i < 2; i++ {
		cat, err := catalog.Open(worldDir, catalog.Options{ResidentBytes: budget})
		if err != nil {
			c.close()
			return nil, st, err
		}
		wk := &worker{cat: cat}
		cfg := serve.Config{Catalog: cat, Metrics: obs.NewRegistry(), Recorder: obs.NewFlightRecorder(0)}
		cfg.Recorder.SetLogger(c.logger)
		if spec.live {
			wk.liveDir = filepath.Join(dir, fmt.Sprintf("live%d", i))
			cfg.LiveDir = wk.liveDir
			tcfg := c.tickCfg
			cfg.Tick = &tcfg
		}
		if wk.srv, err = serve.New(cfg); err != nil {
			c.close()
			return nil, st, err
		}
		h := wk.srv.Handler()
		if spec.tracer != nil {
			h = spec.tracer.worker(h)
		}
		if wk.url, wk.hs, err = listen(h); err != nil {
			c.close()
			return nil, st, err
		}
		c.workers = append(c.workers, wk)
		peers = append(peers, wk.url)
	}

	// The same keepalive settings as the router's default transport; a
	// transport of our own lets teardown close its idle connections.
	c.transport = &http.Transport{MaxIdleConns: 64, MaxIdleConnsPerHost: 8, IdleConnTimeout: 90 * time.Second}
	var rt http.RoundTripper = c.transport
	if spec.tracer != nil {
		rt = tracingTransport{base: c.transport}
	}
	router, err := fleet.New(fleet.Config{
		Peers: peers, Transport: rt, Logger: c.logger,
		Metrics: obs.NewRegistry(), Recorder: obs.NewFlightRecorder(0),
	})
	if err != nil {
		c.close()
		return nil, st, err
	}
	router.Start()
	c.router = router
	h := router.Handler()
	if spec.tracer != nil {
		h = spec.tracer.router(h)
	}
	if c.url, c.rhs, err = listen(h); err != nil {
		c.close()
		return nil, st, err
	}
	if err := c.gate(ctx); err != nil {
		c.close()
		return nil, st, err
	}
	st.total = time.Since(t0)
	return c, st, nil
}

// listen serves h on a fresh loopback port.
func listen(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := serve.NewHTTPServer(ln.Addr().String(), h)
	go hs.Serve(ln)
	return "http://" + ln.Addr().String(), hs, nil
}

// gate waits until the router reports both workers up, each advertising
// every world, and answers ready.
func (c *cluster) gate(ctx context.Context) error {
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if ready, err := c.ready(ctx, client); err != nil {
			return err
		} else if ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(20 * time.Millisecond):
		}
	}
	return fmt.Errorf("fleet did not become healthy within 15s")
}

func (c *cluster) ready(ctx context.Context, client *http.Client) (bool, error) {
	rep, err := fetch(ctx, client, http.MethodGet, c.url+"/v1/fleet")
	if err != nil || rep.status != http.StatusOK {
		return false, nil
	}
	var fr struct {
		Members []struct {
			State  string   `json:"state"`
			Worlds []string `json:"worlds"`
		} `json:"members"`
	}
	if err := json.Unmarshal(rep.body, &fr); err != nil {
		return false, fmt.Errorf("decode /v1/fleet: %w", err)
	}
	if len(fr.Members) != len(c.workers) {
		return false, nil
	}
	for _, m := range fr.Members {
		if m.State != "up" || len(m.Worlds) != len(c.worlds) {
			return false, nil
		}
	}
	rep, err = fetch(ctx, client, http.MethodGet, c.url+"/v1/readyz")
	return err == nil && rep.status == http.StatusOK, nil
}

// close stops the router and the workers, waiting for each to finish,
// and releases their catalogs and live-world journals.
func (c *cluster) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if c.rhs != nil {
		c.rhs.Shutdown(ctx)
	}
	if c.router != nil {
		c.router.Close()
	}
	for _, wk := range c.workers {
		if wk.hs != nil {
			wk.hs.Shutdown(ctx)
		}
		if wk.srv != nil {
			if err := wk.srv.Close(); err != nil {
				c.logger.Warn("worker close", "err", err)
			}
		}
		if err := wk.cat.Close(); err != nil {
			c.logger.Warn("catalog close", "err", err)
		}
	}
	if c.transport != nil {
		c.transport.CloseIdleConnections()
	}
}
