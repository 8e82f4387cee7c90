package main

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"time"

	"bwcluster"
	"bwcluster/internal/cluster"
	"bwcluster/internal/dataset"
	"bwcluster/internal/metric"
	"bwcluster/internal/overlay"
	"bwcluster/internal/predtree"
	"bwcluster/internal/stats"
)

// datasetSeed fixes each workload's host population: the deployment
// under test stays the same from run to run, and --seed varies the
// traffic (queries, churn operations) it serves. Quality figures such as
// the wrong-pair rate depend mostly on the matrix, so a per-run matrix
// would swamp any change a PR makes to them.
const datasetSeed = 1

// genMatrix draws an HP-like bandwidth matrix (Mbps) of n hosts, the
// generator the soak harness uses.
func genMatrix(n int) (*metric.Matrix, [][]float64, error) {
	m, err := dataset.Generate(dataset.HPConfig().WithN(n), rand.New(rand.NewSource(datasetSeed)))
	if err != nil {
		return nil, nil, err
	}
	raw := make([][]float64, n)
	for i := range raw {
		raw[i] = make([]float64, n)
		for j := range raw[i] {
			if i != j {
				raw[i][j] = m.At(i, j)
			}
		}
	}
	return m, raw, nil
}

// bandwidthClasses mirrors New's default classes: the 10th..80th
// percentiles of the measured bandwidths.
func bandwidthClasses(bw *metric.Matrix) []float64 {
	vals := bw.Values()
	var classes []float64
	for p := 10.0; p <= 80; p += 10 {
		v, err := stats.Percentile(vals, p)
		if err == nil && v > 0 && (len(classes) == 0 || v > classes[len(classes)-1]) {
			classes = append(classes, v)
		}
	}
	return classes
}

// predMatrix expands a forest's distance matrix to n hosts; hosts the
// forest does not hold are unreachable, as in bwcluster.Load.
func predMatrix(f *predtree.Forest, n int) *metric.Matrix {
	dm, hosts := f.DistMatrix()
	pred := metric.NewMatrix(n)
	present := make([]bool, n)
	for _, h := range hosts {
		present[h] = true
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if !present[i] || !present[j] {
				pred.Set(i, j, math.Inf(1))
			}
		}
	}
	for i := range hosts {
		for j := i + 1; j < len(hosts); j++ {
			pred.Set(hosts[i], hosts[j], dm.Dist(i, j))
		}
	}
	return pred
}

// split rebuilds what bwcluster.New builds, one layer at a time and with
// New's arguments, so set-up time can be divided by layer: the
// prediction forest, the Algorithm 1 index over its predictions, and the
// converged synchronous overlay.
type split struct {
	forest                        *predtree.Forest
	pred                          *metric.Matrix
	idx                           *cluster.Index
	net                           *overlay.Network
	forestMs, indexMs, convergeMs float64
}

// buildSplit runs the layers New runs (default options, seed 1). With
// full false it stops after the predicted matrix, which is all the
// answer checker needs.
func buildSplit(bw *metric.Matrix, classes []float64, full bool) (*split, error) {
	c := bwcluster.DefaultC
	dist, err := metric.DistanceFromBandwidth(bw, c)
	if err != nil {
		return nil, err
	}
	workers := cluster.Workers(0, 0)
	sp := &split{}
	t0 := time.Now()
	sp.forest, err = predtree.BuildForestParallel(dist, c, predtree.SearchAnchor, 3, rand.New(rand.NewSource(1)), workers)
	if err != nil {
		return nil, err
	}
	sp.forestMs = ms(time.Since(t0))
	sp.pred = predMatrix(sp.forest, bw.N())
	if !full {
		return sp, nil
	}
	t0 = time.Now()
	if sp.idx, err = cluster.NewIndexParallelAt(sp.pred, workers, sp.forest.Epoch()); err != nil {
		return nil, err
	}
	sp.indexMs = ms(time.Since(t0))
	t0 = time.Now()
	distClasses, err := overlay.ClassesFromBandwidths(classes, c)
	if err != nil {
		return nil, err
	}
	if sp.net, err = overlay.NewNetwork(sp.forest, overlay.Config{NCut: overlay.DefaultNCut, Classes: distClasses}); err != nil {
		return nil, err
	}
	if _, err := sp.net.Converge(0); err != nil {
		return nil, err
	}
	sp.convergeMs = ms(time.Since(t0))
	return sp, nil
}

// matches checks that the split answers as sys does: every predicted
// bandwidth, and (with a full split) a sample of central and decentral
// queries drawn from gen.
func (sp *split) matches(sys *bwcluster.System, gen func() query, samples int) error {
	n := sys.Len()
	for u := 0; u < n; u++ {
		for v := u + 1; v < n; v++ {
			got, err := sys.PredictBandwidth(u, v)
			if err != nil {
				return err
			}
			if want := sys.Constant() / sp.pred.Dist(u, v); math.Abs(got-want) > 1e-9*want {
				return fmt.Errorf("split predicts %g Mbps for (%d,%d), System %g", want, u, v, got)
			}
		}
	}
	if sp.idx == nil {
		return nil
	}
	for i := 0; i < samples; i++ {
		q := gen()
		l, err := metric.DistanceForBandwidthConstraint(q.b, sys.Constant())
		if err != nil {
			return err
		}
		if q.central {
			want, err := sys.FindCluster(q.k, q.b)
			if err != nil {
				return err
			}
			got, err := sp.idx.Find(q.k, l)
			if err != nil {
				return err
			}
			if !slices.Equal(got, want) {
				return fmt.Errorf("split index answers k=%d b=%g with %v, System %v", q.k, q.b, got, want)
			}
			continue
		}
		want, err := sys.Query(q.start, q.k, q.b)
		if err != nil {
			return err
		}
		got, err := sp.net.Query(q.start, q.k, l)
		if err != nil {
			return err
		}
		if !slices.Equal(got.Cluster, want.Members) || got.Hops != want.Hops {
			return fmt.Errorf("split overlay answers start=%d k=%d b=%g with %v, System %v",
				q.start, q.k, q.b, got.Cluster, want.Members)
		}
	}
	return nil
}

func (sp *split) report(rep *report) {
	rep.layer["predtree.forest_build_ms"] = sp.forestMs
	rep.layer["cluster.index_build_ms"] = sp.indexMs
	rep.layer["overlay.converge_ms"] = sp.convergeMs
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// uniqueQuery draws a fresh query: k uniform in [kLo, kHi], b uniform
// over the class range written to 6 decimals, a uniform start, and a
// decentral share of decentralPct percent.
func uniqueQuery(rng *rand.Rand, classes []float64, hosts []int, kLo, kHi, decentralPct int) query {
	lo, hi := classes[0], classes[len(classes)-1]
	b := roundB(lo + rng.Float64()*(hi-lo))
	return query{
		central: rng.Intn(100) >= decentralPct,
		start:   hosts[rng.Intn(len(hosts))],
		k:       kLo + rng.Intn(kHi-kLo+1),
		b:       b,
	}
}

// roundB writes b to 6 decimals and reads it back, so the value a
// client sends over HTTP and the value it checks against agree.
func roundB(b float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(b, 'f', 6, 64), 64)
	return v
}

// seen remembers how often each distinct (query, answer) pair was
// returned, so each is checked once but weighted by its count.
type seen map[string]*seenEntry

type seenEntry struct {
	q query
	a answer
	n int
}

// add counts one (query, answer) pair. The key is built on the stack and
// a repeated pair allocates nothing, so recording an operation barely
// touches the heap whose collector the timed calls share.
func (s seen) add(q query, a answer) {
	var buf [160]byte
	key := appendKey(buf[:0], q, a)
	if e := s[string(key)]; e != nil {
		e.n++
		return
	}
	a.members = slices.Clone(a.members) // keep only the members, not the engine's backing array
	s[string(key)] = &seenEntry{q: q, a: a, n: 1}
}

// appendKey appends the identity of a (query, answer) pair to b.
func appendKey(b []byte, q query, a answer) []byte {
	b = strconv.AppendBool(b, q.central)
	b = strconv.AppendInt(append(b, ' '), int64(q.start), 10)
	b = strconv.AppendInt(append(b, ' '), int64(q.k), 10)
	b = strconv.AppendFloat(append(b, ' '), q.b, 'g', -1, 64)
	for _, m := range a.members {
		b = strconv.AppendInt(append(b, ' '), int64(m), 10)
	}
	b = strconv.AppendBool(append(b, ' '), a.found)
	return strconv.AppendFloat(append(b, ' '), a.class, 'g', -1, 64)
}

// checkAll judges every distinct answer the clients recorded, splitting
// the work across goroutines, and fills wrong_pair_rate.
func checkAll(ck *checker, rep *report, parts []seen) {
	var items []*seenEntry
	for _, p := range parts {
		for _, e := range p {
			items = append(items, e)
		}
	}
	w := clients()
	reps := make([]*report, w)
	tallies := make([]tally, w)
	runClients(w, func(c int) {
		reps[c] = newReport()
		for i := c; i < len(items); i += w {
			tallies[c].add(ck, reps[c], items[i].q, items[i].a, items[i].n)
		}
	})
	var t tally
	for c := range reps {
		rep.wrong += reps[c].wrong
		rep.failed += reps[c].failed
		for _, p := range reps[c].problems {
			rep.problem("%s", p)
		}
		t.pairs += tallies[c].pairs
		t.wrongPairs += tallies[c].wrongPairs
		t.answers += tallies[c].answers
		t.belowB += tallies[c].belowB
	}
	t.finish(rep)
}
