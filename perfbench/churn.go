package main

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bwcluster"
	"bwcluster/internal/bwledger"
	"bwcluster/internal/cluster"
	"bwcluster/internal/membership"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/runtime"
	"bwcluster/internal/transport"
)

// overlay-churn: no HTTP. A pool of hosts, some live in a prediction
// forest served by runtime peers at the 1 ms serving tick. One writer
// evicts a random live host and adds a random spare, then waits until
// the runtime's state version is quiet; one reader issues queries
// closed-loop throughout: decentral ones through the runtime, central
// ones against the Algorithm 1 index of the current membership epoch.

// quiet is how long the runtime's state version must stay unchanged for
// gossip to count as settled.
const quiet = 50 * time.Millisecond

// settledQuiet is the longer quiet window the end-of-run fixed-point
// check waits for: gossip held up behind a full inbox can still change
// state after lulls of half a second.
const settledQuiet = 2 * time.Second

// prefix exposes the first n hosts of a distance oracle, so the forest
// starts with n live hosts while later joins use the whole pool.
type prefix struct {
	m *metric.Matrix
	n int
}

func (p prefix) N() int                { return p.n }
func (p prefix) Dist(i, j int) float64 { return p.m.Dist(i, j) }

// epochState is what readers see of one membership epoch.
type epochState struct {
	seq  int // position in the writer's op sequence (0: initial)
	live []int
	idx  *cluster.Index
	pred *metric.Matrix
}

// waitQuiet polls version until it has not changed for quiet and
// returns the time of the last change seen.
func waitQuiet(version func() int64, quiet, timeout time.Duration) (time.Time, error) {
	last, lastChange := version(), time.Now()
	deadline := lastChange.Add(timeout)
	for {
		time.Sleep(time.Millisecond)
		now := time.Now()
		if v := version(); v != last {
			last, lastChange = v, now
		} else if now.Sub(lastChange) >= quiet {
			return lastChange, nil
		}
		if now.After(deadline) {
			return lastChange, fmt.Errorf("runtime state still changing after %v", timeout)
		}
	}
}

func newEpochState(seq int, f *predtree.Forest, n int) (*epochState, float64, error) {
	pred := predMatrix(f, n)
	t0 := time.Now()
	idx, err := cluster.NewIndexAt(pred, f.Epoch())
	if err != nil {
		return nil, 0, err
	}
	return &epochState{seq: seq, live: f.Hosts(), idx: idx, pred: pred}, ms(time.Since(t0)), nil
}

// churnEnv is what every replicate of overlay-churn shares.
type churnEnv struct {
	cfg     *config
	bw      *metric.Matrix // measured bandwidth of the whole pool
	dist    *metric.Matrix // its distance transform, the join oracle
	classes []float64
	ovCfg   overlay.Config
	tr      *tracer
}

// buildForest builds the starting forest over the first churnLive hosts
// of the pool, with New's arguments.
func (e *churnEnv) buildForest() (*predtree.Forest, error) {
	return predtree.BuildForestParallel(prefix{e.dist, e.cfg.churnLive}, bwcluster.DefaultC, predtree.SearchAnchor, 3,
		rand.New(rand.NewSource(1)), cluster.Workers(0, 0))
}

// churnAcc accumulates measurements over the replicates.
type churnAcc struct {
	setupS, settleMs, forestMs, indexMs, idle, ledgerBytes []float64
	evictMs, addMs, repairMs, reconvMs, find, runtimeUs    []float64
	syncUs, queueUs, hops, convergeMs                      []float64
	slices                                                 []slice
	ops, stale, reads                                      int
	ticks, elapsed                                         float64
	before, after                                          counters
	tally                                                  tally
	ov                                                     overhead
}

func runOverlayChurn(cfg *config) (*report, error) {
	rep := newReport()
	bw, _, err := genMatrix(cfg.churnPool)
	if err != nil {
		return nil, err
	}
	c := bwcluster.DefaultC
	e := &churnEnv{cfg: cfg, bw: bw, classes: bandwidthClasses(bw)}
	if e.dist, err = metric.DistanceFromBandwidth(bw, c); err != nil {
		return nil, err
	}
	distClasses, err := overlay.ClassesFromBandwidths(e.classes, c)
	if err != nil {
		return nil, err
	}
	e.ovCfg = overlay.Config{NCut: overlay.DefaultNCut, Classes: distClasses}
	if cfg.trace {
		e.tr = newTracer()
	}
	acc := &churnAcc{}
	for ri := 0; ri < cfg.setups; ri++ {
		if err := e.replicate(ri, ri == cfg.setups-1, rep, acc); err != nil {
			return nil, err
		}
	}
	acc.tally.finish(rep)
	rep.findings = append(rep.findings, fmt.Sprintf(
		"%d of %d reads returned the host evicted by a still-reconverging repair", acc.stale, acc.reads))
	rep.layer["runtime.stale_answer_ratio"] = float64(acc.stale) / float64(acc.reads)
	rep.e2e["setup_s"] = median(acc.setupS)
	rep.e2e["idle_cpu_cores"] = median(acc.idle)
	rep.e2e["repair_p50_ms"] = median(acc.repairMs)
	rep.e2e["reconverge_p50_ms"] = median(acc.reconvMs)
	rep.e2e["reconverge_p95_ms"] = pct(sortedCopy(acc.reconvMs), 95)
	rep.loadMetrics(acc.slices)
	rep.layer["runtime.settle_ms"] = median(acc.settleMs)
	rep.layer["predtree.forest_build_ms"] = median(acc.forestMs)
	rep.layer["cluster.index_build_ms"] = median(acc.indexMs)
	rep.layer["overlay.converge_ms"] = median(acc.convergeMs)
	rep.layer["runtime.idle_cpu_cores"] = rep.e2e["idle_cpu_cores"]
	rep.layer["bwledger.idle_bytes_per_host_s"] = median(acc.ledgerBytes)
	rep.layer["runtime.evict_ms_p50"] = median(acc.evictMs)
	rep.layer["runtime.add_ms_p50"] = median(acc.addMs)
	rep.layer["runtime.repairs_per_s"] = float64(acc.ops) / acc.elapsed
	rep.layer["runtime.ticks_per_s"] = acc.ticks / acc.elapsed
	find, rt := sortedCopy(acc.find), sortedCopy(acc.runtimeUs)
	rep.layer["cluster.find_us_p50"] = pct(find, 50)
	rep.layer["cluster.find_us_p99"] = pct(find, 99)
	rep.layer["runtime.query_us_p50"] = pct(rt, 50)
	rep.layer["runtime.query_us_p99"] = pct(rt, 99)
	syncUs, queue := sortedCopy(acc.syncUs), sortedCopy(acc.queueUs)
	rep.layer["overlay.query_us_p50"] = pct(syncUs, 50)
	rep.layer["overlay.query_us_p99"] = pct(syncUs, 99)
	rep.layer["overlay.hops_mean"] = mean(acc.hops)
	rep.layer["runtime.queue_us_p50"] = pct(queue, 50)
	rep.layer["runtime.queue_us_p99"] = pct(queue, 99)
	layerCounters(rep, acc.before, acc.after, acc.elapsed)
	for _, m := range []string{"fleet.cache_hit_ratio", "fleet.proxy_calls_per_miss", "fleet.failovers", "fleet.shed"} {
		rep.layer[m] = 0
		rep.notes[m] = "no router in overlay-churn"
	}
	for _, m := range []string{"fleet.router_self_ms_p50", "fleet.proxy_ms_p50", "fleet.proxy_ms_p99",
		"serveapi.handler_ms_p50", "serveapi.handler_ms_p99", "serveapi.hop_ms_p50"} {
		rep.notes[m] = "no HTTP in overlay-churn"
	}
	for _, m := range []string{"bwcluster.save_ms", "bwcluster.load_ms", "bwcluster.snapshot_kb"} {
		rep.notes[m] = "overlay-churn drives the runtime over a bare forest; no System snapshot"
	}
	if e.tr != nil {
		rep.layer["trace.overhead_pct"] = acc.ov.pct()
		rep.layerSelf = layerSelf(e.tr.snapshot())
		if rep.spanFile, err = e.tr.write(cfg.outDir, cfg.workload, cfg.seed, fingerprint(cfg)); err != nil {
			return nil, err
		}
	}
	return rep, nil
}

// replicate sets up one runtime, measures its idle cost, runs the writer
// and the reader for its part of the timed load, checks every read and
// the fixed point after churn, and stops it. The last replicate also
// takes the heap figure while its runtime is live.
func (e *churnEnv) replicate(ri int, last bool, rep *report, acc *churnAcc) error {
	cfg, tr, c := e.cfg, e.tr, bwcluster.DefaultC
	delivered0 := transport.DeliveredTotal()
	t0 := time.Now()
	f, err := e.buildForest()
	if err != nil {
		return err
	}
	acc.forestMs = append(acc.forestMs, ms(time.Since(t0)))
	rt, err := runtime.New(f, e.ovCfg, time.Millisecond)
	if err != nil {
		return err
	}
	defer rt.Stop() // idempotent; stopped early below to reconcile the ledger
	// As a serving runtime: a report-only liveness tracker and a
	// bandwidth ledger on its transport.
	if _, err := rt.AttachMembership(membership.Config{}, false); err != nil {
		return err
	}
	ledger := bwledger.New(bwledger.Config{})
	rt.SetLedger(ledger)
	t1 := time.Now()
	rt.Start()
	lastChange, err := waitQuiet(rt.Version, quiet, 60*time.Second)
	if err != nil {
		return err
	}
	t2 := time.Now()
	cur, ixMs, err := newEpochState(0, f, cfg.churnPool)
	if err != nil {
		return err
	}
	acc.indexMs = append(acc.indexMs, ixMs)
	// Set-up ends with the epoch's index built after gossip last changed
	// state; the quiet window that confirmed it is excluded.
	acc.setupS = append(acc.setupS, (lastChange.Sub(t0) + time.Since(t2)).Seconds())
	acc.settleMs = append(acc.settleMs, ms(lastChange.Sub(t1)))

	bytes0 := ledger.Snapshot().TotalBytes
	idleT0 := time.Now()
	acc.idle = append(acc.idle, idleWindow(cfg.idle))
	acc.ledgerBytes = append(acc.ledgerBytes, float64(ledger.Snapshot().TotalBytes-bytes0)/
		time.Since(idleT0).Seconds()/float64(len(cur.live)))

	var (
		mu       sync.RWMutex // readers hold it per query; the writer per repair
		ops      [][2]int     // (evicted, added) per repair, in order
		writeErr error
		settling atomic.Int64 // the host evicted by the repair still reconverging, or -1
		reads    []churnRead
	)
	settling.Store(-1)
	before := readCounters()
	tick0 := rt.Health().Ticks
	start := time.Now()
	end := start.Add(cfg.measure / time.Duration(cfg.setups))
	var rl lat
	if tr != nil {
		tr.on.Store(true)
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the writer
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(100*ri+7)))
		spares := make([]int, 0, cfg.churnPool-cfg.churnLive)
		for h := cfg.churnLive; h < cfg.churnPool; h++ {
			spares = append(spares, h)
		}
		// repair evicts a random live host and adds a random spare under
		// the writer lock, then publishes the new epoch to the readers.
		repair := func(req string) (r repairOp, err error) {
			mu.Lock()
			defer mu.Unlock()
			vi, si := rng.Intn(len(cur.live)), rng.Intn(len(spares))
			r.victim = cur.live[vi]
			spare := spares[si]
			h := tr.start("runtime", "repair", req)
			t0 := time.Now()
			he := tr.start("runtime", "evict", req)
			err = rt.EvictHost(r.victim)
			he.end()
			t1 := time.Now()
			if err == nil {
				ha := tr.start("runtime", "add", req)
				err = rt.AddHost(spare, e.dist)
				ha.end()
			}
			r.done = time.Now()
			h.end()
			r.evictMs, r.addMs = ms(t1.Sub(t0)), ms(r.done.Sub(t1))
			var st *epochState
			if err == nil {
				st, r.indexMs, err = newEpochState(len(ops)+1, f, cfg.churnPool)
			}
			if err != nil {
				return r, err
			}
			cur = st
			settling.Store(int64(r.victim))
			spares[si] = r.victim
			ops = append(ops, [2]int{r.victim, spare})
			return r, nil
		}
		for i := 0; time.Now().Before(end); i++ {
			req := fmt.Sprintf("r%d-w%d", ri, i)
			op, err := repair(req)
			if err != nil {
				writeErr = err
				return
			}
			acc.evictMs = append(acc.evictMs, op.evictMs)
			acc.addMs = append(acc.addMs, op.addMs)
			acc.repairMs = append(acc.repairMs, op.evictMs+op.addMs)
			acc.indexMs = append(acc.indexMs, op.indexMs)
			hr := tr.start("runtime", "reconverge", req)
			settled, err := waitQuiet(rt.Version, quiet, 60*time.Second)
			hr.end()
			settling.Store(-1)
			if err != nil {
				writeErr = err
				return
			}
			if settled.Before(op.done) {
				settled = op.done
			}
			acc.reconvMs = append(acc.reconvMs, ms(settled.Sub(op.done)))
		}
	}()
	go func() { // the reader
		defer wg.Done()
		rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(100*ri+50)))
		for i := 0; ; i++ {
			now := time.Now()
			if now.After(end) {
				return
			}
			mu.RLock()
			st := cur
			departed := int(settling.Load())
			q := uniqueQuery(rng, e.classes, st.live, 2, 11, 70)
			l, err := metric.DistanceForBandwidthConstraint(q.b, c)
			if err != nil {
				mu.RUnlock()
				panic(err) // q.b is drawn from the positive class range
			}
			req := fmt.Sprintf("r%d-q%d", ri, i)
			ot, kind := tracedOp(tr, i)
			var a answer
			rep.attempted++
			t0 := time.Now()
			if q.central {
				h := ot.start("cluster", "find", req)
				var m []int
				m, err = st.idx.FindAt(f.Epoch(), q.k, l)
				h.end()
				a = answer{members: m, found: m != nil}
			} else {
				h := ot.start("runtime", "query", req)
				var res overlay.Result
				res, err = rt.Query(q.start, q.k, l, 10*time.Second)
				h.end()
				a = answer{members: res.Cluster, found: res.Found()}
				if res.Class > 0 {
					a.class = c / res.Class
				}
			}
			d := time.Since(t0)
			mu.RUnlock()
			rl.add(q.central, d, err == nil)
			if tr != nil {
				acc.ov.add(kind, err == nil, time.Since(now))
			}
			if err != nil {
				rep.failed++
				rep.problem("churn read %+v: %v", q, err)
				continue
			}
			if q.central {
				acc.find = append(acc.find, float64(d.Nanoseconds())/1e3)
			} else {
				acc.runtimeUs = append(acc.runtimeUs, float64(d.Nanoseconds())/1e3)
			}
			reads = append(reads, churnRead{seq: st.seq, q: q, a: a, departed: departed})
		}
	}()
	wg.Wait()
	if tr != nil {
		tr.on.Store(false)
	}
	acc.elapsed += time.Since(start).Seconds()
	acc.before, acc.after = addCounters(acc.before, before), addCounters(acc.after, readCounters())
	acc.ticks += float64(rt.Health().Ticks - tick0)
	if writeErr != nil {
		return fmt.Errorf("churn writer: %w", writeErr)
	}
	acc.slices = append(acc.slices, slice{ls: []*lat{&rl}, span: end.Sub(start)})
	acc.ops += len(ops)
	acc.reads += len(reads)

	// Check every read by replaying the op sequence on a fresh forest
	// built the same way: churn is deterministic given the op order, so
	// replay reproduces each epoch's predictions and membership.
	stale, err := checkChurnReads(rep, &acc.tally, e.buildForest, e.dist, e.bw, ops, reads, f)
	if err != nil {
		return err
	}
	acc.stale += stale

	// The fixed point after churn: every peer's routing state must equal
	// a freshly converged synchronous overlay over the repaired forest,
	// and settled queries must agree with it on found / not-found.
	if _, err := waitQuiet(rt.Version, settledQuiet, 60*time.Second); err != nil {
		return err
	}
	t0 = time.Now()
	nw, err := overlay.NewNetwork(f, e.ovCfg)
	if err != nil {
		return err
	}
	if _, err := nw.Converge(0); err != nil {
		return err
	}
	acc.convergeMs = append(acc.convergeMs, ms(time.Since(t0)))
	fixedPoint(rep, rt, nw)
	rng := rand.New(rand.NewSource(cfg.seed*1000 + int64(100*ri+90)))
	live := f.Hosts()
	finalCk := forestChecker(f, e.bw)
	for i := 0; i < 60; i++ {
		q := uniqueQuery(rng, e.classes, live, 2, 11, 100)
		l, _ := metric.DistanceForBandwidthConstraint(q.b, c)
		t0 := time.Now()
		want, err := nw.Query(q.start, q.k, l)
		sd := time.Since(t0)
		if err != nil {
			return err
		}
		t0 = time.Now()
		got, err := rt.Query(q.start, q.k, l, 10*time.Second)
		ad := time.Since(t0)
		rep.attempted++
		if err == nil && got.Found() {
			err = finalCk.valid(got.Cluster, q.k, c/got.Class, q.b)
		}
		if err != nil || got.Found() != want.Found() {
			rep.failed++
			rep.wrong++
			rep.problem("settled query %+v: async found=%v err=%v, sync found=%v", q, got.Found(), err, want.Found())
			continue
		}
		acc.syncUs = append(acc.syncUs, float64(sd.Nanoseconds())/1e3)
		acc.queueUs = append(acc.queueUs, float64((ad-sd).Nanoseconds())/1e3)
		acc.hops = append(acc.hops, float64(want.Hops))
	}
	if last {
		rep.e2e["heap_mb"] = heapMB()
	}

	// The ledger must still account every delivery on the runtime's
	// transport: once the peers stop, its message total reconciles with
	// the process's delivered counter.
	rt.Stop()
	rep.attempted++
	if got, want := ledger.Snapshot().TotalMessages, int64(transport.DeliveredTotal()-delivered0); got != want {
		rep.problem("ledger counted %d messages, transport delivered %d", got, want)
		rep.failed++
		rep.wrong++
	}
	return nil
}

// repairOp is one writer repair: the evicted host, when the repair
// calls returned, and how long each step took.
type repairOp struct {
	victim                  int
	done                    time.Time
	evictMs, addMs, indexMs float64
}

// churnRead is one reader operation and the epoch it was served at.
type churnRead struct {
	seq      int
	q        query
	a        answer
	departed int // host evicted by the repair reconverging when the read began, or -1
}

// checkChurnReads replays ops on a fresh forest and checks each read
// against the epoch it was served at: central answers must equal the
// un-memoized scan over that epoch's predictions, decentral answers must
// be valid clusters of that epoch's live hosts. Found / not-found of a
// decentral read is not compared mid-churn: the fixed point it would be
// compared with is still moving.
func checkChurnReads(rep *report, t *tally, build func() (*predtree.Forest, error), dist, bw *metric.Matrix,
	ops [][2]int, reads []churnRead, final *predtree.Forest) (stale int, err error) {
	f, err := build()
	if err != nil {
		return 0, err
	}
	apply := func(op [2]int) error {
		if err := f.Remove(op[0]); err != nil {
			return err
		}
		return f.Add(op[1], dist)
	}
	seq, ck := 0, forestChecker(f, bw)
	for _, r := range reads {
		for ; seq < r.seq; seq++ {
			if err := apply(ops[seq]); err != nil {
				return 0, fmt.Errorf("replaying churn: %w", err)
			}
			if seq+1 == r.seq {
				ck = forestChecker(f, bw)
			}
		}
		if r.departed >= 0 && slices.Contains(r.a.members, r.departed) {
			// Gossip still in flight from before the eviction can carry
			// the departed host until the runtime settles again, and the
			// runtime promises Query's semantics only once settled.
			stale++
			continue
		}
		t.add(ck, rep, r.q, r.a, 1)
	}
	for ; seq < len(ops); seq++ {
		if err := apply(ops[seq]); err != nil {
			return 0, fmt.Errorf("replaying churn: %w", err)
		}
	}
	a, _ := f.DistMatrix()
	b, _ := final.DistMatrix()
	if !slices.Equal(a.Values(), b.Values()) || !slices.Equal(f.Hosts(), final.Hosts()) {
		return 0, errors.New("replayed churn does not reproduce the runtime's forest")
	}
	return stale, nil
}

// forestChecker checks answers against one membership epoch: the
// forest's live hosts and predictions.
func forestChecker(f *predtree.Forest, bw *metric.Matrix) *checker {
	live := map[int]bool{}
	for _, h := range f.Hosts() {
		live[h] = true
	}
	return &checker{
		c: bwcluster.DefaultC, pred: predMatrix(f, bw.N()), measured: bw.At,
		live: func(h int) bool { return live[h] }, hosts: f.Hosts(),
	}
}

// fixedPoint compares every live peer's routing state with nw's.
func fixedPoint(rep *report, rt *runtime.Runtime, nw *overlay.Network) {
	rep.attempted++
	for _, x := range rt.Hosts() {
		bad := !slices.Equal(nw.SelfCRT(x), rt.SelfCRT(x))
		for _, m := range nw.Neighbors(x) {
			bad = bad || !slices.Equal(nw.AggrNode(x, m), rt.AggrNode(x, m)) || !slices.Equal(nw.CRT(x, m), rt.CRT(x, m))
		}
		if bad {
			rep.problem("peer %d routing state differs from the converged synchronous overlay", x)
			rep.failed++
			rep.wrong++
			return
		}
	}
}
