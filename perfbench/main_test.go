package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"bwcluster"
	"bwcluster/internal/bwledger"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/runtime"
	"bwcluster/internal/transport"
)

// smokeConfig shrinks every workload to a few seconds.
func smokeConfig(t *testing.T, workload string, trace bool) *config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.trace = workload, 3, trace
	cfg.measure = 1500 * time.Millisecond
	cfg.setups = 2
	cfg.outDir = t.TempDir()
	cfg.fleetHosts, cfg.churnPool, cfg.churnLive, cfg.buildHosts = 24, 40, 32, 64
	cfg.idle, cfg.warm, cfg.engine = 200*time.Millisecond, 200*time.Millisecond, 300*time.Millisecond
	return cfg
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestSmokeEmitsEveryMetric runs each workload at smoke size, untraced
// and traced, and checks that the result line carries every metric
// BENCHMARK.json names, with its unit, and that every answer checked.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	for _, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Fatalf("BENCHMARK.json names unknown workload %q", w.Name)
		}
	}
	// Every workload the program runs emits every metric, including the
	// workloads BENCHMARK.json does not list.
	for _, name := range workloadNames() {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			cfg := smokeConfig(t, name, trace)
			rep, err := workloads[name](cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			var out bytes.Buffer
			if err := rep.print(&out, cfg); err != nil {
				t.Fatalf("%s trace=%v: %v\n%s", name, trace, err, out.String())
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var res resultLine
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
				t.Fatalf("%s: last line is not the result: %v", name, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s",
					name, trace, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, trace, m.Name, got, m.Unit)
				}
			}
			if trace && rep.spanFile == "" {
				t.Errorf("%s: traced run wrote no span file", name)
			}
		}
	}
}

// TestCheckerFlagsTamperedAnswer swaps one member of a correct answer
// for a host with low predicted bandwidth to the rest; the checker must
// reject it, central and decentral alike.
func TestCheckerFlagsTamperedAnswer(t *testing.T) {
	bw, raw, err := genMatrix(48)
	if err != nil {
		t.Fatal(err)
	}
	sys, err := bwcluster.New(raw, bwcluster.WithSeed(1))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := buildSplit(bw, sys.Classes(), false)
	if err != nil {
		t.Fatal(err)
	}
	ck := systemChecker(sys, sp.pred)
	rng := rand.New(rand.NewSource(5))
	checked := map[bool]int{}
	for i := 0; i < 400 && (checked[true] < 5 || checked[false] < 5); i++ {
		q := uniqueQuery(rng, sys.Classes(), sys.Hosts(), 3, 6, 50)
		var a answer
		if q.central {
			m, err := sys.FindCluster(q.k, q.b)
			if err != nil {
				t.Fatal(err)
			}
			a = answer{members: m, found: m != nil}
		} else {
			res, err := sys.Query(q.start, q.k, q.b)
			if err != nil {
				t.Fatal(err)
			}
			a = answer{members: res.Members, found: res.Found(), class: res.Class}
		}
		if !a.found {
			continue
		}
		if err := ck.check(q, a); err != nil {
			t.Fatalf("untampered answer rejected: %v", err)
		}
		// The host with the lowest predicted bandwidth to the first member.
		worst, worstBW := -1, 0.0
		for _, h := range sys.Hosts() {
			if slices.Contains(a.members, h) {
				continue
			}
			if p, _ := sys.PredictBandwidth(a.members[0], h); worst < 0 || p < worstBW {
				worst, worstBW = h, p
			}
		}
		if worstBW >= q.b {
			continue // every host is close enough; no low-bandwidth host to swap in
		}
		bad := a
		bad.members = append([]int(nil), a.members...)
		bad.members[len(bad.members)-1] = worst
		if err := ck.check(q, bad); err == nil {
			t.Errorf("tampered answer accepted: %+v with %v (host %d at %.3g Mbps, b=%g)",
				q, bad.members, worst, worstBW, q.b)
		}
		checked[q.central]++
	}
	if checked[true] == 0 || checked[false] == 0 {
		t.Fatalf("tampered too few answers: %v", checked)
	}
}

// TestTracingKeepsBehaviour checks that the layer-timing wrappers leave
// the program alone: the fleet answers the same queries identically with
// and without them, and a traced runtime's bandwidth ledger still
// reconciles with the transport's delivered counter.
func TestTracingKeepsBehaviour(t *testing.T) {
	bw, raw, err := genMatrix(24)
	if err != nil {
		t.Fatal(err)
	}
	answers := func(tr *tracer) []string {
		r, err := startFleet(raw, tr)
		if err != nil {
			t.Fatal(err)
		}
		defer r.close()
		if tr != nil {
			tr.on.Store(true)
		}
		rng := rand.New(rand.NewSource(9))
		c := &fleetClient{seen: seen{}}
		hc := &http.Client{}
		var out []string
		for i := 0; i < 60; i++ {
			q := uniqueQuery(rng, r.sys.Classes(), r.sys.Hosts(), 2, 6, 30)
			c.do(hc, r.routerURL, q, fmt.Sprint("t", i), tr, true)
		}
		for k, e := range c.seen {
			out = append(out, k+"x"+strings.Repeat("+", e.n))
		}
		slices.Sort(out)
		if c.failed != 0 {
			t.Fatalf("fleet failed %d queries: %v", c.failed, c.problems)
		}
		return out
	}
	tr := newTracer()
	if plain, traced := answers(nil), answers(tr); !slices.Equal(plain, traced) {
		t.Errorf("traced fleet answered differently:\n%v\n%v", plain, traced)
	}
	if len(durations(tr.snapshot(), "fleet", "proxy")) == 0 || len(durations(tr.snapshot(), "serveapi", "handler")) == 0 {
		t.Errorf("traced fleet recorded no proxy or handler spans")
	}

	// A runtime over one in-process transport, queried under spans.
	dist, err := metric.DistanceFromBandwidth(bw, bwcluster.DefaultC)
	if err != nil {
		t.Fatal(err)
	}
	f, err := predtree.BuildForest(dist, bwcluster.DefaultC, predtree.SearchAnchor, 3, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	classes, err := overlay.ClassesFromBandwidths(bandwidthClasses(bw), bwcluster.DefaultC)
	if err != nil {
		t.Fatal(err)
	}
	d0 := transport.DeliveredTotal()
	rt, err := runtime.New(f, overlay.Config{NCut: overlay.DefaultNCut, Classes: classes}, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	ledger := bwledger.New(bwledger.Config{})
	rt.SetLedger(ledger)
	rt.Start()
	if _, err := waitQuiet(rt.Version, quiet, time.Minute); err != nil {
		t.Fatal(err)
	}
	tr = newTracer()
	tr.on.Store(true)
	for i, h := range rt.Hosts() {
		sp := tr.start("runtime", "query", fmt.Sprint("q", i))
		if _, err := rt.Query(h, 3, classes[len(classes)/2], 5*time.Second); err != nil {
			t.Fatal(err)
		}
		sp.end()
	}
	rt.Stop()
	if got, want := ledger.Snapshot().TotalMessages, int64(transport.DeliveredTotal()-d0); got != want {
		t.Errorf("ledger counted %d messages, transport delivered %d", got, want)
	}
}
