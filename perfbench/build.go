package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"bwcluster"
)

// The engine workloads build a system with bwcluster.New, persist it
// with SaveBytes and restore it with LoadBytes (the replica path without
// a network), then query the restored System directly from closed-loop
// clients: centralized FindCluster calls and synchronous decentralized
// Query calls. No gossip, router or HTTP runs.
//
// build-scale: n=512 and unique keys, so set-up is the O(n³) index build
// and the Algorithm 1 memo misses.
//
// engine-zipf: n=64 and the fleet's zipf key stream, so the Algorithm 1
// memo answers most central queries.

func runBuildScale(cfg *config) (*report, error) {
	return runEngine(cfg, cfg.buildHosts, func(classes []float64, hosts []int, rng *rand.Rand) func() query {
		return func() query { return uniqueQuery(rng, classes, hosts, 2, 31, 30) }
	})
}

func runEngineZipf(cfg *config) (*report, error) {
	universe := zipfUniverse(cfg.fleetHosts)
	return runEngine(cfg, cfg.fleetHosts, func(_ []float64, _ []int, rng *rand.Rand) func() query {
		zg := rand.NewZipf(rng, 1.2, 1, uint64(len(universe)-1))
		return func() query { return universe[zg.Uint64()] }
	})
}

// runEngine runs an engine workload over a system of hostCount hosts; each
// client draws its queries from newGen(classes, hosts, its rng).
func runEngine(cfg *config, hostCount int,
	newGen func(classes []float64, hosts []int, rng *rand.Rand) func() query) (*report, error) {
	rep := newReport()
	bw, raw, err := genMatrix(hostCount)
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.trace {
		tr = newTracer()
	}
	for _, m := range []string{"runtime.ticks_per_s", "runtime.repairs_per_s", "bwledger.idle_bytes_per_host_s",
		"fleet.cache_hit_ratio", "fleet.proxy_calls_per_miss", "fleet.failovers", "fleet.shed"} {
		rep.layer[m] = 0
		rep.notes[m] = "no gossip, router or churn in " + cfg.workload
	}
	for _, m := range []string{"repair_p50_ms", "reconverge_p50_ms", "reconverge_p95_ms",
		"runtime.settle_ms", "runtime.query_us_p50", "runtime.query_us_p99", "runtime.queue_us_p50",
		"runtime.queue_us_p99", "runtime.evict_ms_p50", "runtime.add_ms_p50", "runtime.stale_answer_ratio",
		"fleet.router_self_ms_p50", "fleet.proxy_ms_p50", "fleet.proxy_ms_p99",
		"serveapi.handler_ms_p50", "serveapi.handler_ms_p99", "serveapi.hop_ms_p50"} {
		rep.notes[m] = cfg.workload + " runs no runtime, router or HTTP"
	}

	n := clients()
	type client struct {
		lat   lat
		seen  seen
		hops  []float64
		fails []string
	}
	var (
		blob                         []byte
		priv                         *bwcluster.System
		sp                           *split
		classes                      []float64
		hosts                        []int
		setupS, saveMs, loadMs, idle []float64
		slices                       []slice
		parts                        []seen
		hops                         []float64
		before, after                counters
		elapsed                      float64
		ov                           overhead
		sys                          *bwcluster.System
	)
	for ri := 0; ri < cfg.setups; ri++ {
		sys = nil // the previous replicate's system is garbage from here
		start := time.Now()
		built, err := bwcluster.New(raw, bwcluster.WithSeed(1))
		if err != nil {
			return nil, err
		}
		t0 := time.Now()
		b, err := built.SaveBytes()
		if err != nil {
			return nil, err
		}
		t1 := time.Now()
		if sys, err = bwcluster.LoadBytes(b); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(start).Seconds())
		saveMs = append(saveMs, ms(t1.Sub(t0)))
		loadMs = append(loadMs, ms(time.Since(t1)))
		rep.attempted++
		if ri == 0 {
			// The checker's references: a private System restored from the
			// same snapshot (its own Algorithm 1 memo) and the split's
			// predictions.
			blob = b
			if priv, err = bwcluster.LoadBytes(blob); err != nil {
				return nil, err
			}
			classes, hosts = sys.Classes(), sys.Hosts()
			if sp, err = buildSplit(bw, classes, cfg.trace); err != nil {
				return nil, err
			}
			sampleRng := rand.New(rand.NewSource(cfg.seed + 50))
			if err := sp.matches(priv, newGen(classes, hosts, sampleRng), 200); err != nil {
				rep.failed++
				rep.wrong++
				rep.problem("set-up split differs from New: %v", err)
			}
			sp.report(rep)
		} else if !bytes.Equal(b, blob) {
			rep.failed++
			rep.wrong++
			rep.problem("replicate %d built a different system snapshot", ri)
		}
		idle = append(idle, idleWindow(cfg.idle))

		cs := make([]*client, n)
		b0 := readCounters()
		start = time.Now()
		end := start.Add(cfg.measure / time.Duration(cfg.setups))
		if tr != nil {
			tr.on.Store(true)
		}
		runClients(n, func(w int) {
			c := &client{seen: seen{}}
			cs[w] = c
			gen := newGen(classes, hosts, rand.New(rand.NewSource(cfg.seed*1000+int64(100*ri+w))))
			for i := 0; ; i++ {
				now := time.Now()
				if now.After(end) {
					return
				}
				q := gen()
				var req string // a traced run's request id
				if tr != nil {
					req = fmt.Sprintf("r%d-c%d-%d", ri, w, i)
				}
				ot, kind := tracedOp(tr, i)
				var a answer
				var err error
				t0 := time.Now()
				if q.central {
					h := ot.start("cluster", "find", req)
					var m []int
					m, err = sys.FindCluster(q.k, q.b)
					h.end()
					a = answer{members: m, found: m != nil}
				} else {
					h := ot.start("overlay", "query", req)
					var res bwcluster.QueryResult
					res, err = sys.Query(q.start, q.k, q.b)
					h.end()
					a = answer{members: res.Members, found: res.Found(), class: res.Class}
					if err == nil {
						c.hops = append(c.hops, float64(res.Hops))
					}
				}
				c.lat.add(q.central, time.Since(t0), err == nil)
				if tr != nil {
					ov.add(kind, err == nil, time.Since(now))
				}
				if err != nil {
					c.fails = append(c.fails, fmt.Sprintf("%+v: %v", q, err))
					continue
				}
				if q.central {
					q.start = 0
				}
				c.seen.add(q, a)
			}
		})
		if tr != nil {
			tr.on.Store(false)
		}
		elapsed += time.Since(start).Seconds()
		before, after = addCounters(before, b0), addCounters(after, readCounters())
		var ls []*lat
		for _, c := range cs {
			rep.attempted += int64(len(c.lat.central) + len(c.lat.decentral))
			rep.failed += int64(len(c.fails))
			for _, f := range c.fails {
				rep.problem("%s", f)
			}
			ls = append(ls, &c.lat)
			parts = append(parts, c.seen)
			hops = append(hops, c.hops...)
		}
		slices = append(slices, slice{ls: ls, span: end.Sub(start)})
	}
	rep.e2e["setup_s"] = median(setupS)
	rep.e2e["idle_cpu_cores"] = median(idle)
	rep.layer["runtime.idle_cpu_cores"] = rep.e2e["idle_cpu_cores"]
	rep.layer["bwcluster.save_ms"] = median(saveMs)
	rep.layer["bwcluster.load_ms"] = median(loadMs)
	rep.layer["bwcluster.snapshot_kb"] = float64(len(blob)) / 1024
	rep.loadMetrics(slices)
	// Clients call the engines directly, so the client latencies are the
	// Algorithm 1 and synchronous Algorithm 4 call times.
	rep.layer["cluster.find_us_p50"] = rep.e2e["central_p50_ms"] * 1e3
	rep.layer["cluster.find_us_p99"] = rep.e2e["central_p99_ms"] * 1e3
	rep.layer["overlay.query_us_p50"] = rep.e2e["decentral_p50_ms"] * 1e3
	rep.layer["overlay.query_us_p99"] = rep.e2e["decentral_p99_ms"] * 1e3
	rep.layer["overlay.hops_mean"] = mean(hops)
	layerCounters(rep, before, after, elapsed)

	checkAll(systemChecker(priv, sp.pred), rep, parts)

	if tr != nil {
		rep.layer["trace.overhead_pct"] = ov.pct()
		rep.layerSelf = layerSelf(tr.snapshot())
		if rep.spanFile, err = tr.write(cfg.outDir, cfg.workload, cfg.seed, fingerprint(cfg)); err != nil {
			return nil, err
		}
	}
	// The last restored system stays live; the checker's references and
	// the clients' records are dead by now and are collected first.
	rep.e2e["heap_mb"] = heapMB()
	runtime.KeepAlive(sys)
	return rep, nil
}
