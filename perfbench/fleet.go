package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"bwcluster"
	"bwcluster/internal/fleet"
	"bwcluster/internal/metric"
	"bwcluster/internal/transport"
)

// The two fleet workloads share one rig: a builder shard and a replica
// fed by its snapshot stream at the default gossip tick, each on its own
// loopback TCPTransport wired like `bwc-fleet -mode shard`, behind an
// in-process router on a real listener. They differ only in the request
// stream.

func runFleetZipf(cfg *config) (*report, error) { return runFleet(cfg, true) }

func runFleetUnique(cfg *config) (*report, error) { return runFleet(cfg, false) }

const fleetShards = 2

type rig struct {
	sys       *bwcluster.System
	trs       []*transport.TCPTransport // one per shard
	shards    []*fleet.Shard
	srvs      []*http.Server
	urls      []string
	router    *fleet.Router
	routerSrv *http.Server
	routerURL string
	settle    time.Duration // Install until both runtimes report converged
	ready     time.Time     // when the fleet became ready and converged
}

var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// startFleet builds the system from raw and wires the fleet as
// `bwc-fleet -mode shard` and `-mode router` would, in one process. It
// returns once the router sees both shards ready and both runtimes have
// converged.
func startFleet(raw [][]float64, tr *tracer) (r *rig, err error) {
	r = &rig{}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	if r.sys, err = bwcluster.New(raw, bwcluster.WithNCut(10), bwcluster.WithSeed(1)); err != nil {
		return r, err
	}
	if err := r.wireTCP(); err != nil {
		return r, err
	}
	for i := 0; i < fleetShards; i++ {
		sh := fleet.NewShard(fleet.ShardConfig{Index: i, Shards: fleetShards, Transport: r.trs[i], Logger: discard})
		r.shards = append(r.shards, sh)
		if i > 0 {
			if err := sh.StartReplica(); err != nil {
				return r, err
			}
		}
		h := sh.Handler()
		if tr != nil {
			h = tr.handler(h)
		}
		url, srv, err := serve(h)
		if err != nil {
			return r, err
		}
		r.urls, r.srvs = append(r.urls, url), append(r.srvs, srv)
	}
	t0 := time.Now()
	if err := r.shards[0].Install(r.sys); err != nil {
		return r, err
	}
	if err := r.shards[0].StreamTo(1, 1); err != nil {
		return r, err
	}
	var proxy http.RoundTripper = &http.Transport{MaxIdleConnsPerHost: 4}
	if tr != nil {
		proxy = roundTripper{t: tr, next: proxy}
	}
	r.router = fleet.NewRouter(fleet.RouterConfig{
		Shards:        r.urls,
		Logger:        discard,
		Admission:     fleet.AdmissionConfig{Rate: 1e9, Queue: 1 << 20}, // the soak's: no shedding
		ProbeInterval: 100 * time.Millisecond,
		Client:        &http.Client{Timeout: 15 * time.Second, Transport: proxy},
	})
	r.router.Start()
	if r.routerURL, r.routerSrv, err = serve(r.router); err != nil {
		return r, err
	}
	return r, r.waitReady(t0, 60*time.Second)
}

// wireTCP gives each shard its own loopback TCP transport and routes
// every peer and replicator endpoint the other shard hosts to it.
func (r *rig) wireTCP() error {
	for i := 0; i < fleetShards; i++ {
		t, err := transport.NewTCP(transport.TCPConfig{Listen: "127.0.0.1:0", JitterSeed: int64(i + 1)})
		if err != nil {
			return err
		}
		r.trs = append(r.trs, t)
	}
	parts := fleet.Assign(r.sys.Hosts(), fleetShards, r.sys.Epoch())
	for i, t := range r.trs {
		for j, other := range r.trs {
			if i == j {
				continue
			}
			t.AddRoute(fleet.ReplicaEndpoint(j), other.Addr())
			for _, h := range parts[j] {
				t.AddRoute(h, other.Addr())
			}
		}
	}
	return nil
}

func serve(h http.Handler) (string, *http.Server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }() // returns when the server is closed
	return "http://" + ln.Addr().String(), srv, nil
}

var probe = &http.Client{Timeout: 5 * time.Second}

// getJSON fetches url into v, returning the status code.
func getJSON(url string, v any) (int, error) {
	resp, err := probe.Get(url)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	return resp.StatusCode, json.NewDecoder(resp.Body).Decode(v)
}

// readyStreak is how long both shards must report converged without a
// break before the fleet counts as converged. A shard's verdict needs
// only 25 quiet ticks; updates from the other shard can arrive after
// that, so one converged reading is not yet the fixed point.
const readyStreak = 250 * time.Millisecond

// waitReady returns once the router sees every shard ready and every
// shard has reported converged for readyStreak; r.settle is measured
// from t0 to the start of that streak.
func (r *rig) waitReady(t0 time.Time, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var streak time.Time // zero: not converged at the last poll
	for {
		now := time.Now()
		var ready struct {
			ShardsReady int `json:"shardsReady"`
		}
		_, err := getJSON(r.routerURL+"/v1/ready", &ready)
		ok := err == nil && ready.ShardsReady == fleetShards
		for _, u := range r.urls {
			var h struct {
				Converged bool `json:"converged"`
			}
			_, err := getJSON(u+"/v1/health", &h)
			ok = ok && err == nil && h.Converged
		}
		switch {
		case !ok:
			streak = time.Time{}
		case streak.IsZero():
			streak = now
		case now.Sub(streak) >= readyStreak:
			r.settle, r.ready = streak.Sub(t0), streak
			return nil
		}
		if now.After(deadline) {
			return fmt.Errorf("fleet not converged after %v", timeout)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (r *rig) close() {
	if r.routerSrv != nil {
		_ = r.routerSrv.Close()
	}
	if r.router != nil {
		r.router.Stop()
	}
	for _, s := range r.srvs {
		_ = s.Close()
	}
	for _, sh := range r.shards {
		sh.Close()
	}
	for _, t := range r.trs {
		_ = t.Close()
	}
}

// shardStats reads the shards' mean runtime tick count and their summed
// ledger bytes from their health and bandwidth endpoints.
func (r *rig) shardStats() (ticks, ledgerBytes float64) {
	for _, u := range r.urls {
		var h struct {
			Ticks float64 `json:"ticks"`
		}
		var b struct {
			TotalBytes float64 `json:"totalBytes"`
		}
		_, _ = getJSON(u+"/v1/health", &h)
		_, _ = getJSON(u+"/v1/bandwidth", &b)
		ticks += h.Ticks
		ledgerBytes += b.TotalBytes
	}
	return ticks / fleetShards, ledgerBytes
}

// zipfUniverse is the soak's workload universe: every (start, k, b)
// with k in 3..6 and b in {12, 18, 25}, about 30% decentral, shuffled
// so the zipf head is a representative mix. Like the soak it derives
// from the dataset seed, so the hot keys are part of the deployment and
// --seed varies only the draws from them.
func zipfUniverse(hosts int) []query {
	rng := rand.New(rand.NewSource(datasetSeed + 1))
	var u []query
	for start := 0; start < hosts; start++ {
		for _, k := range []int{3, 4, 5, 6} {
			for _, b := range []float64{12, 18, 25} {
				u = append(u, query{central: rng.Intn(10) >= 3, start: start, k: k, b: b})
			}
		}
	}
	rng.Shuffle(len(u), func(i, j int) { u[i], u[j] = u[j], u[i] })
	return u
}

type clusterBody struct {
	Members   []int   `json:"members"`
	Found     bool    `json:"found"`
	ClassMbps float64 `json:"classMbps"`
}

// fleetClient is one closed-loop HTTP client's state.
type fleetClient struct {
	lat       lat
	seen      seen
	attempted int64
	failed    int64
	timedOK   int64
	misses    int64 // traced requests the router missed its cache on
	problems  []string
}

// do issues one query through the router and records it; timed
// requests also record latency.
func (c *fleetClient) do(hc *http.Client, base string, q query, req string, tr *tracer, timed bool) {
	url := base + "/v1/cluster?k=" + strconv.Itoa(q.k) + "&b=" + strconv.FormatFloat(q.b, 'f', -1, 64)
	if !q.central {
		url += "&mode=decentral&start=" + strconv.Itoa(q.start)
	}
	hreq, _ := http.NewRequest(http.MethodGet, url, nil)
	hreq.Header.Set("X-Request-Id", req)
	c.attempted++
	sp := tr.start("client", map[bool]string{true: "central", false: "decentral"}[q.central], req)
	t0 := time.Now()
	resp, err := hc.Do(hreq)
	var body []byte
	if err == nil {
		body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	d := time.Since(t0)
	sp.end()
	ok := err == nil && resp.StatusCode == http.StatusOK
	var cb clusterBody
	if ok {
		ok = json.Unmarshal(body, &cb) == nil
	}
	if timed {
		c.lat.add(q.central, d, ok)
	}
	if !ok {
		c.failed++
		if len(c.problems) < 5 {
			c.problems = append(c.problems, fmt.Sprintf("GET %s: err=%v body=%.200s", url, err, body))
		}
		return
	}
	if timed {
		c.timedOK++
	}
	if sp.recording() && resp.Header.Get("X-Fleet-Cache") == "miss" {
		c.misses++
	}
	if resp.Header.Get("X-Fleet-Fallback") != "" {
		q.central, q.start = true, 0 // answered by the central rewrite
	}
	if q.central {
		q.start = 0
	}
	c.seen.add(q, answer{members: cb.Members, found: cb.Found, class: cb.ClassMbps})
}

func runFleet(cfg *config, zipf bool) (*report, error) {
	rep := newReport()
	bw, raw, err := genMatrix(cfg.fleetHosts)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	universe := zipfUniverse(cfg.fleetHosts)
	n := clients()
	hc := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n}}
	defer hc.CloseIdleConnections()
	part := cfg.measure / time.Duration(cfg.setups)
	warm := time.Duration(0)
	if zipf {
		warm = cfg.warm
	}

	var (
		blob                   []byte
		priv                   *bwcluster.System
		sp                     *split
		classes                []float64
		hosts                  []int
		setupS, idle, settleMs []float64
		slices                 []slice
		parts                  []seen
		misses                 int64
		ledgerBytes, elapsed   float64
		ticks                  float64
		hits, lookups          float64
		ov                     overhead
		before, after          counters
		r                      *rig
	)
	defer func() {
		if r != nil {
			r.close()
		}
	}()
	for ri := 0; ri < cfg.setups; ri++ {
		if r != nil {
			r.close()
		}
		t0 := time.Now()
		if r, err = startFleet(raw, tr); err != nil {
			return nil, err
		}
		setupS = append(setupS, r.ready.Sub(t0).Seconds())
		settleMs = append(settleMs, ms(r.settle))
		t1 := time.Now()
		b, err := r.sys.SaveBytes()
		if err != nil {
			return nil, err
		}
		if ri == 0 {
			// The checker's references: a private System restored from the
			// builder's snapshot, and the split's predicted matrix.
			blob = b
			rep.layer["bwcluster.save_ms"] = ms(time.Since(t1))
			rep.layer["bwcluster.snapshot_kb"] = float64(len(blob)) / 1024
			t0 := time.Now()
			if priv, err = bwcluster.LoadBytes(blob); err != nil {
				return nil, err
			}
			rep.layer["bwcluster.load_ms"] = ms(time.Since(t0))
			classes, hosts = r.sys.Classes(), r.sys.Hosts()
			if sp, err = buildSplit(bw, classes, cfg.trace); err != nil {
				return nil, err
			}
			sampleRng := rand.New(rand.NewSource(cfg.seed + 50))
			rep.attempted++
			if err := sp.matches(priv, func() query { return uniqueQuery(sampleRng, classes, hosts, 2, 11, 30) }, 200); err != nil {
				rep.failed++
				rep.wrong++
				rep.problem("set-up split differs from New: %v", err)
			}
			sp.report(rep)
		} else {
			rep.attempted++
			if !bytes.Equal(b, blob) {
				rep.failed++
				rep.wrong++
				rep.problem("replicate %d built a different system snapshot", ri)
			}
		}

		// Idle window: the cost of keeping the overlay live.
		_, bytes0 := r.shardStats()
		idleT0 := time.Now()
		idle = append(idle, idleWindow(cfg.idle))
		_, bytes1 := r.shardStats()
		ledgerBytes += (bytes1 - bytes0) / time.Since(idleT0).Seconds() / float64(len(hosts))

		// Load: a warm-up (fleet-zipf), then the timed part.
		cs := make([]*fleetClient, n)
		start := time.Now()
		timedStart := start.Add(warm)
		end := timedStart.Add(part)
		var b0 counters
		var cache0 fleet.CacheStats
		var tick0 float64
		var snapped atomic.Bool
		grab := func() { // at the start of the timed part
			b0, cache0 = readCounters(), r.router.Cache().Stats()
			tick0, _ = r.shardStats()
			if tr != nil {
				tr.on.Store(true)
			}
		}
		if warm == 0 {
			grab()
			snapped.Store(true)
		}
		runClients(n, func(w int) {
			c := &fleetClient{seen: seen{}}
			cs[w] = c
			rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(100*ri+w)))
			zg := rand.NewZipf(rng, 1.2, 1, uint64(len(universe)-1))
			for i := 0; ; i++ {
				now := time.Now()
				if now.After(end) {
					return
				}
				if w == 0 && !now.Before(timedStart) && snapped.CompareAndSwap(false, true) {
					grab()
				}
				var q query
				if zipf {
					q = universe[zg.Uint64()]
				} else {
					q = uniqueQuery(rng, classes, hosts, 2, 11, 30)
				}
				timed := !now.Before(timedStart)
				ok0 := c.timedOK
				ot, kind := tracedOp(tr, i)
				c.do(hc, r.routerURL, q, fmt.Sprintf("r%d-c%d-%d", ri, w, i), ot, timed)
				if timed && tr != nil {
					ov.add(kind, c.timedOK > ok0, time.Since(now))
				}
			}
		})
		if tr != nil {
			tr.on.Store(false)
		}
		a0 := readCounters()
		cache1 := r.router.Cache().Stats()
		tick1, _ := r.shardStats()
		el := time.Since(timedStart).Seconds()
		elapsed += el
		ticks += tick1 - tick0
		hits += float64(cache1.Hits - cache0.Hits)
		lookups += float64(cache1.Hits-cache0.Hits) + float64(cache1.Misses-cache0.Misses)
		before, after = addCounters(before, b0), addCounters(after, a0)
		var ls []*lat
		for _, c := range cs {
			rep.attempted += c.attempted
			rep.failed += c.failed
			misses += c.misses
			ls = append(ls, &c.lat)
			parts = append(parts, c.seen)
			for _, p := range c.problems {
				rep.problem("%s", p)
			}
		}
		slices = append(slices, slice{ls: ls, span: end.Sub(timedStart)})
	}
	rep.e2e["setup_s"] = median(setupS)
	rep.e2e["idle_cpu_cores"] = median(idle)
	rep.layer["runtime.idle_cpu_cores"] = rep.e2e["idle_cpu_cores"]
	rep.layer["runtime.settle_ms"] = median(settleMs)
	rep.layer["bwledger.idle_bytes_per_host_s"] = ledgerBytes / float64(cfg.setups)
	rep.loadMetrics(slices)

	checkAll(systemChecker(priv, sp.pred), rep, parts)

	// Per-layer counters over the timed parts.
	rep.ratio("fleet.cache_hit_ratio", hits, lookups)
	rep.layer["fleet.failovers"] = after.delta(before, "bwc_fleet_router_failovers_total")
	rep.layer["fleet.shed"] = after.delta(before, "bwc_fleet_router_shed_total")
	rep.layer["runtime.ticks_per_s"] = ticks / elapsed
	rep.notes["runtime.repairs_per_s"] = "no membership change in the fleet workloads"
	rep.layer["runtime.repairs_per_s"] = 0
	layerCounters(rep, before, after, elapsed)
	for _, m := range []string{"repair_p50_ms", "reconverge_p50_ms", "reconverge_p95_ms", "runtime.evict_ms_p50",
		"runtime.add_ms_p50", "runtime.stale_answer_ratio"} {
		rep.notes[m] = "the fleet has no membership churn; see overlay-churn"
	}

	if tr != nil {
		spans := tr.snapshot()
		proxies := durations(spans, "fleet", "proxy")
		rep.ratio("fleet.proxy_calls_per_miss", float64(len(proxies)), float64(misses))
		rep.layer["fleet.proxy_ms_p50"] = pct(proxies, 50) / 1e3
		rep.layer["fleet.proxy_ms_p99"] = pct(proxies, 99) / 1e3
		self := append(selfDurations(spans, "client", "central"), selfDurations(spans, "client", "decentral")...)
		rep.layer["fleet.router_self_ms_p50"] = median(self) / 1e3
		handlers := durations(spans, "serveapi", "handler")
		rep.layer["serveapi.handler_ms_p50"] = pct(handlers, 50) / 1e3
		rep.layer["serveapi.handler_ms_p99"] = pct(handlers, 99) / 1e3
		rep.layer["serveapi.hop_ms_p50"] = median(selfDurations(spans, "fleet", "proxy")) / 1e3
		rep.layer["trace.overhead_pct"] = ov.pct()

		// Engine-only phase on the private System: Algorithm 1 and sync
		// Algorithm 4 timed directly, and the async runtime's queueing.
		gen := func(rng *rand.Rand) query { return uniqueQuery(rng, classes, hosts, 2, 11, 30) }
		if zipf {
			zg := rand.NewZipf(rand.New(rand.NewSource(cfg.seed+60)), 1.2, 1, uint64(len(universe)-1))
			gen = func(*rand.Rand) query { return universe[zg.Uint64()] }
		}
		if err := enginePhase(rep, priv, sp.pred, gen, cfg, tr); err != nil {
			return nil, err
		}
		rep.layerSelf = layerSelf(tr.snapshot())
		if rep.spanFile, err = tr.write(cfg.outDir, cfg.workload, cfg.seed, fingerprint(cfg)); err != nil {
			return nil, err
		}
	}

	// Heap with the last fleet still live; the checker's references and
	// the clients' records are dead by now and are collected first.
	rep.e2e["heap_mb"] = heapMB()
	return rep, nil
}

// addCounters sums two counter snapshots (nil counts as empty).
func addCounters(a, b counters) counters {
	out := counters{}
	for k, v := range a {
		out[k] += v
	}
	for k, v := range b {
		out[k] += v
	}
	return out
}

// layerCounters fills the transport and Algorithm 1 counters over a
// window of elapsed seconds.
func layerCounters(rep *report, before, after counters, elapsed float64) {
	var delivered float64
	for _, k := range []string{"nodeinfo", "crt", "query", "nodequery", "result", "noderesult", "trace", "snapshot"} {
		d := after.delta(before, `bwc_transport_delivered_total{kind="`+k+`"}`)
		delivered += d
		rep.layer["transport.delivered_per_s."+k] = d / elapsed
	}
	var dropped float64
	for _, reason := range []string{"inbox_full", "queue_full", "no_route", "unknown_peer", "superseded"} {
		dropped += after.delta(before, `bwc_transport_dropped_total{reason="`+reason+`"}`)
	}
	for _, reason := range []string{"inbox_full", "queue_full", "superseded"} {
		rep.ratio("transport.dropped."+reason,
			after.delta(before, `bwc_transport_dropped_total{reason="`+reason+`"}`), delivered+dropped)
	}
	hits := after.delta(before, "bwc_cluster_index_cache_hits_total")
	misses := after.delta(before, "bwc_cluster_index_cache_misses_total")
	rep.ratio("cluster.index_cache_hit_ratio", hits, hits+misses)
	rep.ratio("cluster.scan_rows_per_miss", after.delta(before, "bwc_cluster_scan_rows_total"), misses)
}

// enginePhase times the engines directly on sys for cfg.engine: the
// Algorithm 1 call (FindCluster), the synchronous Algorithm 4 query
// (Query), and a live runtime's query for the same (start, k, b), whose
// excess over the synchronous time is queueing.
func enginePhase(rep *report, sys *bwcluster.System, pred *metric.Matrix, gen func(*rand.Rand) query,
	cfg *config, tr *tracer) error {
	art, err := sys.AsyncRuntime(0)
	if err != nil {
		return err
	}
	defer art.Close()
	if err := art.Settle(50*time.Millisecond, 60*time.Second); err != nil {
		return err
	}
	tr.on.Store(true)
	defer tr.on.Store(false)
	rng := rand.New(rand.NewSource(cfg.seed + 70))
	var find, syncQ, asyncQ, queue, hops []float64
	ck := systemChecker(sys, pred)
	end := time.Now().Add(cfg.engine)
	for i := 0; time.Now().Before(end); i++ {
		q := gen(rng)
		req := fmt.Sprintf("e-%d", i)
		if q.central {
			h := tr.start("cluster", "find", req)
			t0 := time.Now()
			m, err := sys.FindCluster(q.k, q.b)
			find = append(find, float64(time.Since(t0).Nanoseconds())/1e3)
			h.end()
			rep.attempted++
			if err == nil {
				err = ck.central(q, answer{members: m, found: m != nil})
			}
			if err != nil {
				rep.failed++
				rep.problem("engine phase: %v", err)
			}
			continue
		}
		h := tr.start("overlay", "query", req)
		t0 := time.Now()
		res, err := sys.Query(q.start, q.k, q.b)
		sd := time.Since(t0)
		h.end()
		rep.attempted++
		if err != nil {
			rep.failed++
			rep.problem("engine phase: %v", err)
			continue
		}
		syncQ = append(syncQ, float64(sd.Nanoseconds())/1e3)
		hops = append(hops, float64(res.Hops))
		h = tr.start("runtime", "query", req)
		t0 = time.Now()
		ares, err := art.Query(q.start, q.k, q.b, 10*time.Second)
		ad := time.Since(t0)
		h.end()
		rep.attempted++
		if err == nil && ares.Found() != res.Found() {
			err = errors.New("async and sync engines disagree on found")
		}
		if err != nil {
			rep.failed++
			rep.problem("engine phase async start=%d k=%d b=%g: %v", q.start, q.k, q.b, err)
			continue
		}
		asyncQ = append(asyncQ, float64(ad.Nanoseconds())/1e3)
		queue = append(queue, float64((ad-sd).Nanoseconds())/1e3)
	}
	find, syncQ, asyncQ, queue = sortedCopy(find), sortedCopy(syncQ), sortedCopy(asyncQ), sortedCopy(queue)
	rep.layer["cluster.find_us_p50"] = pct(find, 50)
	rep.layer["cluster.find_us_p99"] = pct(find, 99)
	rep.layer["overlay.query_us_p50"] = pct(syncQ, 50)
	rep.layer["overlay.query_us_p99"] = pct(syncQ, 99)
	rep.layer["overlay.hops_mean"] = mean(hops)
	rep.layer["runtime.query_us_p50"] = pct(asyncQ, 50)
	rep.layer["runtime.query_us_p99"] = pct(asyncQ, 99)
	rep.layer["runtime.queue_us_p50"] = pct(queue, 50)
	rep.layer["runtime.queue_us_p99"] = pct(queue, 99)
	return nil
}

// readAllClose buffers and closes a response body.
func readAllClose(resp *http.Response) (io.ReadCloser, error) {
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	return io.NopCloser(bytes.NewReader(b)), nil
}
