package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"remotepeering/internal/journal"
	"remotepeering/internal/scenario"
	"remotepeering/internal/snapshot"
	"remotepeering/internal/tick"
	"remotepeering/internal/worldgen"
)

// readRate is tick-under-load's open-loop read rate.
const readRate = 200.0

// tickLoad puts writes beside reads on one live, journaled world: one
// connection advances it tick by tick in a closed loop while the other
// reads its timeline in an open loop, plus cached what-if hits on a
// second, frozen world.
type tickLoad struct {
	grids  []whatifQuery // the frozen world's cached what-ifs
	reads  *tickReadGen
	ticker *http.Client
	reader *http.Client
	bodies [][]byte // the frozen world's pre-warmed answers

	latest atomic.Uint64 // highest acknowledged tick

	mu      sync.Mutex
	results map[uint64]tick.Result // every acknowledged tick
	sinces  []sinceRead
	clocks  [][]byte          // GET /v1/tick bodies
	papers  map[string][]byte // newspaper body per view digest

	replayed *tick.Engine // the journal replay, reused by layers
	genesis  *worldgen.World
}

// sinceRead is one /v1/since answer and the tick it asked from.
type sinceRead struct {
	t    uint64
	body []byte
}

const liveWorld, frozenWorld = 0, 1

func newTickLoad(seed int64) *tickLoad {
	grids := warmGrids(seed, 1)[0]
	for i := range grids {
		grids[i].world = frozenWorld
	}
	return &tickLoad{
		grids: grids, reads: newTickReadGen(seed),
		ticker: newClient(1), reader: newClient(1),
		results: map[uint64]tick.Result{}, papers: map[string][]byte{},
	}
}

func (w *tickLoad) spec() clusterSpec       { return clusterSpec{worlds: 2, live: true} }
func (w *tickLoad) clients() []*http.Client { return []*http.Client{w.ticker, w.reader} }

type tickReply struct {
	Base     string           `json:"base"`
	Digest   string           `json:"digest"`
	Live     bool             `json:"live"`
	Tick     uint64           `json:"tick"`
	Metrics  scenario.Metrics `json:"metrics"`
	Advanced []tick.Result    `json:"advanced"`
}

// advance posts one tick through the router and records its result.
func (w *tickLoad) advance(ctx context.Context, b *bench, timed func()) int {
	rep, err := fetch(ctx, w.ticker, http.MethodPost, b.url("/v1/tick?n=1&world="+b.c.worlds[liveWorld].digest))
	if timed != nil {
		timed()
	}
	if err != nil {
		return 0
	}
	if rep.status != http.StatusOK {
		return rep.status
	}
	var tr tickReply
	if err := json.Unmarshal(rep.body, &tr); err != nil || len(tr.Advanced) != 1 {
		b.fail("tick-under-load: POST /v1/tick?n=1 answered %d ticks (%v)", len(tr.Advanced), err)
		return rep.status
	}
	res := tr.Advanced[0]
	if prev := w.latest.Load(); res.Tick != prev+1 || tr.Tick != res.Tick || res.Metrics != tr.Metrics {
		b.fail("tick-under-load: tick %d acknowledged after tick %d", res.Tick, prev)
	}
	w.mu.Lock()
	w.results[res.Tick] = res
	w.mu.Unlock()
	w.latest.Store(res.Tick)
	return rep.status
}

// warm wakes the live world with its first tick and pre-warms the
// frozen world's what-ifs.
func (w *tickLoad) warm(ctx context.Context, b *bench) error {
	if st := w.advance(ctx, b, nil); st != http.StatusOK {
		return fmt.Errorf("waking the live world: status %d", st)
	}
	digest := b.c.worlds[frozenWorld].digest
	for _, q := range w.grids {
		rep, err := fetch(ctx, w.reader, http.MethodGet, b.url(q.path(digest)))
		if err != nil {
			return err
		}
		if rep.status != http.StatusOK {
			return fmt.Errorf("pre-warm %s: status %d", q.key(), rep.status)
		}
		w.bodies = append(w.bodies, rep.body)
	}
	return nil
}

// read sends one timeline or what-if read and records what it needs.
func (w *tickLoad) read(ctx context.Context, b *bench, op tickRead, timed func()) (string, int) {
	live := b.c.worlds[liveWorld].digest
	var class, path string
	var t uint64
	switch op.kind {
	case readSince:
		t = max(1, w.latest.Load()-uint64(min(op.back, int(w.latest.Load()))))
		class, path = "GET /v1/since", "/v1/since?world="+live+"&t="+strconv.FormatUint(t, 10)
	case readNewspaper:
		class, path = "GET /v1/newspaper", "/v1/newspaper?window=8&world="+live
	case readTick:
		class, path = "GET /v1/tick", "/v1/tick?world="+live
	default:
		class, path = "GET /v1/whatif", w.grids[op.grid].path(b.c.worlds[frozenWorld].digest)
	}
	rep, err := fetch(ctx, w.reader, http.MethodGet, b.url(path))
	timed()
	if err != nil {
		return class, 0
	}
	if rep.status != http.StatusOK {
		return class, rep.status
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	switch op.kind {
	case readSince:
		w.sinces = append(w.sinces, sinceRead{t: t, body: rep.body})
	case readNewspaper:
		var np struct {
			Digest string `json:"digest"`
		}
		if err := json.Unmarshal(rep.body, &np); err != nil {
			b.fail("tick-under-load: undecodable newspaper: %v", err)
		} else if prev, ok := w.papers[np.Digest]; ok && !bytes.Equal(prev, rep.body) {
			b.fail("tick-under-load: view %s answered two different newspapers", np.Digest)
		} else {
			w.papers[np.Digest] = rep.body
		}
	case readTick:
		w.clocks = append(w.clocks, rep.body)
	default:
		if rep.header.Get("X-Cache") != "hit" || !bytes.Equal(rep.body, w.bodies[op.grid]) {
			b.fail("tick-under-load: frozen-world %s was not its byte-identical cached answer", w.grids[op.grid].key())
		}
	}
	return class, rep.status
}

func (w *tickLoad) window(ctx context.Context, b *bench, dur time.Duration) (*figures, error) {
	defer b.tr.alternate(time.Second)()
	cpu0, t0 := cpuTime(), time.Now()
	var ticks []sample
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticks = closedLoop(ctx, t0.Add(dur), 0, func(ctx context.Context, _ int, timed func()) (string, int) {
			return "POST /v1/tick", w.advance(ctx, b, timed)
		})
	}()
	n := int(readRate * dur.Seconds())
	ops := make([]tickRead, n)
	for i := range ops {
		ops[i] = w.reads.next()
	}
	reads := openLoop(ctx, readRate, n, 1, dur+time.Second, 0, func(ctx context.Context, i int, timed func()) (string, int) {
		return w.read(ctx, b, ops[i], timed)
	})
	<-done
	elapsed, cpu := time.Since(t0), cpuTime()-cpu0

	tickLat, readLat := completedLatencies(ticks), completedLatencies(reads)
	committed := int64(len(ticks)) - failedCount(ticks)
	f := &figures{
		p50:         quantile(tickLat, 0.5),
		throughput:  float64(committed) / elapsed.Seconds(),
		latenessP99: quantile(durations(reads, sample.late), 0.99),
		samples:     append(append([]sample(nil), ticks...), reads...),
		split: func(keep func(sample) bool) (time.Duration, time.Duration) {
			return quantile(completedLatencies(filter(ticks, keep)), 0.5), quantile(completedLatencies(filter(reads, keep)), 0.99)
		},
	}
	// The window's CPU is charged to the committed ticks: the reads'
	// share is small and fixed by their rate, so the figure follows what
	// a tick costs.
	if committed > 0 {
		f.cpuPerReq = cpu / time.Duration(committed)
	}
	f.report = []string{
		percentileLine("tick_p50_ms", f.p50, len(ticks)),
		percentileLine("tick_p90_ms", quantile(tickLat, 0.9), len(ticks)),
		percentileLine("tick_read_p50_ms", quantile(readLat, 0.5), len(reads)),
		percentileLine("tick_read_p99_ms", quantile(readLat, 0.99), len(reads)),
		fmt.Sprintf("%-26s %12.4f ticks/s", "tick_rate", f.throughput),
		percentileLine("loadgen_late_p99_ms", f.latenessP99, len(reads)),
	}
	return f, nil
}

// check lands the timeline on a checkpoint, then replays the journal and
// requires the replayed world to equal the live one — the checkpoint
// digest the live engine wrote and the metrics it acknowledged — and
// every read to agree with the tick it named.
func (w *tickLoad) check(ctx context.Context, b *bench) error {
	every := uint64(b.c.tickCfg.CheckpointEvery)
	for w.latest.Load()%every != 0 {
		if st := w.advance(ctx, b, nil); st != http.StatusOK {
			return fmt.Errorf("advancing to a checkpoint: status %d", st)
		}
	}
	final := w.latest.Load()
	rep, err := fetch(ctx, w.ticker, http.MethodGet, b.url("/v1/tick?world="+b.c.worlds[liveWorld].digest))
	if err != nil {
		return err
	}
	var clock tickReply
	if err := json.Unmarshal(rep.body, &clock); err != nil {
		return fmt.Errorf("decode /v1/tick: %w", err)
	}
	if clock.Tick != final || clock.Metrics != w.results[final].Metrics {
		b.fail("tick-under-load: the live world reports tick %d, want %d with the acknowledged metrics", clock.Tick, final)
	}
	if err := w.checkJournal(ctx, b, final); err != nil {
		return err
	}
	w.checkReads(b)
	return nil
}

// checkJournal replays the run's journal over the genesis world.
func (w *tickLoad) checkJournal(ctx context.Context, b *bench, final uint64) error {
	base := b.c.worlds[liveWorld].digest
	var paths []string
	for _, wk := range b.c.workers {
		p := filepath.Join(wk.liveDir, base[:16], tick.JournalFile)
		if _, err := os.Stat(p); err == nil {
			paths = append(paths, p)
		}
	}
	if len(paths) != 1 {
		b.fail("tick-under-load: %d journals for the live world, want exactly one", len(paths))
		return nil
	}
	c, err := journal.Read(paths[0])
	if err != nil {
		return err
	}
	if c.LastTick() != final || len(c.Records) != int(final) {
		b.fail("tick-under-load: journal holds %d records to tick %d, want %d", len(c.Records), c.LastTick(), final)
		return nil
	}
	for _, r := range c.Records {
		if !reflect.DeepEqual(r.Events, w.results[r.Tick].Events) {
			b.fail("tick-under-load: journal tick %d events %v, acknowledged %v", r.Tick, r.Events, w.results[r.Tick].Events)
		}
	}
	var cp *journal.Checkpoint
	for i := range c.Checkpoints {
		if c.Checkpoints[i].Tick == final {
			cp = &c.Checkpoints[i]
		}
	}
	if cp == nil {
		b.fail("tick-under-load: no checkpoint at the final tick %d", final)
		return nil
	}

	att, err := snapshot.Attach(b.c.worlds[liveWorld].path)
	if err != nil {
		return err
	}
	snap, err := att.Snapshot()
	if err != nil {
		att.Close()
		return err
	}
	// The attachment stays mapped for the rest of the run: the replayed
	// engine's worlds alias the genesis snapshot's arrays.
	w.genesis = snap.World
	eng, err := tick.Replay(ctx, snap.World, b.c.tickCfg, c.Records, false)
	if err != nil {
		return fmt.Errorf("replay: %w", err)
	}
	w.replayed = eng
	path := filepath.Join(b.dir, "replayed.flat")
	digest, err := snapshot.SaveFlatFile(path, &snapshot.Snapshot{World: eng.World(), Tick: eng.State()})
	if err != nil {
		return err
	}
	os.Remove(path)
	if eng.Tick() != final || digest != cp.Digest {
		b.fail("tick-under-load: replay reached tick %d digest %.12s, live checkpoint is tick %d digest %.12s", eng.Tick(), digest, final, cp.Digest)
	}
	if eng.Metrics() != w.results[final].Metrics {
		b.fail("tick-under-load: replayed metrics differ from the live world's at tick %d", final)
	}
	return nil
}

// checkReads requires every since and clock read to agree with the
// acknowledged ticks it named.
func (w *tickLoad) checkReads(b *bench) {
	base := b.c.worlds[liveWorld].digest
	for _, s := range w.sinces {
		var sr struct {
			Digest string         `json:"digest"`
			From   uint64         `json:"from"`
			To     uint64         `json:"to"`
			Ticks  []tick.Result  `json:"ticks"`
			Delta  scenario.Delta `json:"delta"`
		}
		if err := json.Unmarshal(s.body, &sr); err != nil {
			b.fail("tick-under-load: undecodable since: %v", err)
			continue
		}
		bad := sr.From != s.t || sr.Digest != fmt.Sprintf("%s@%d", base, sr.To) || len(sr.Ticks) != int(sr.To-sr.From)
		for i, r := range sr.Ticks {
			if r.Tick != sr.From+uint64(i)+1 || !reflect.DeepEqual(r, w.results[r.Tick]) {
				bad = true
			}
		}
		if want := (scenario.CellResult{Metrics: w.results[sr.To].Metrics}).Diff(w.results[sr.From].Metrics); sr.Delta != want {
			bad = true
		}
		if bad {
			b.fail("tick-under-load: since t=%d answered ticks %d..%d that disagree with the acknowledged ones", s.t, sr.From, sr.To)
		}
	}
	for _, body := range w.clocks {
		var cr tickReply
		if err := json.Unmarshal(body, &cr); err != nil {
			b.fail("tick-under-load: undecodable clock: %v", err)
			continue
		}
		if !cr.Live || cr.Digest != fmt.Sprintf("%s@%d", base, cr.Tick) || cr.Metrics != w.results[cr.Tick].Metrics {
			b.fail("tick-under-load: GET /v1/tick at tick %d disagrees with the acknowledged tick", cr.Tick)
		}
	}
}

// layers replays the genesis world's baseline stage by stage and times
// Engine.Advance directly, continuing the replayed timeline's seeded
// event stream.
func (w *tickLoad) layers(ctx context.Context, b *bench, ls *layerSet) error {
	if w.replayed == nil {
		return fmt.Errorf("no replayed engine to advance")
	}
	if err := replayStages(ctx, w.genesis, ls); err != nil {
		return err
	}
	for i := 0; i < 6; i++ {
		if err := ls.time("tick.advance_ms", func() error { _, err := w.replayed.Advance(ctx); return err }); err != nil {
			return err
		}
	}
	return nil
}
