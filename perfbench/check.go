package main

import (
	"fmt"
	"math"
	"slices"

	"bwcluster"
	"bwcluster/internal/cluster"
	"bwcluster/internal/metric"
)

// query is one request a client issues.
type query struct {
	central bool
	start   int // decentral only
	k       int
	b       float64 // requested minimum bandwidth, Mbps
}

// answer is what the system returned for a query. class is the
// bandwidth class (Mbps) a decentral query was snapped to.
type answer struct {
	members []int
	found   bool
	class   float64
}

// checker judges answers against references the benchmark computes
// itself: central answers must equal the un-memoized Algorithm 1 scan
// over the predicted distance matrix, decentral answers must be valid
// clusters for the class they were snapped to (see valid). When ref is set, a decentral answer's found /
// not-found must also match the synchronous engine's at the fixed point.
type checker struct {
	c        float64
	pred     *metric.Matrix         // predicted distances (d = c / Mbps)
	measured func(u, v int) float64 // measured bandwidth, Mbps
	live     func(h int) bool
	hosts    []int             // every host a certificate pair may use
	ref      *bwcluster.System // sync reference for decentral found / not-found
}

// systemChecker checks against a System restored from the run's
// snapshot and the predicted matrix the set-up split rebuilt.
func systemChecker(sys *bwcluster.System, pred *metric.Matrix) *checker {
	return &checker{
		c:    sys.Constant(),
		pred: pred,
		measured: func(u, v int) float64 {
			bw, _ := sys.MeasuredBandwidth(u, v)
			return bw
		},
		live:  func(h int) bool { return h >= 0 && h < sys.Len() },
		hosts: sys.Hosts(),
		ref:   sys,
	}
}

func (ck *checker) check(q query, a answer) error {
	if q.central {
		return ck.central(q, a)
	}
	return ck.decentral(q, a)
}

func (ck *checker) central(q query, a answer) error {
	l, err := metric.DistanceForBandwidthConstraint(q.b, ck.c)
	if err != nil {
		return err
	}
	want, err := cluster.FindCluster(ck.pred, q.k, l)
	if err != nil {
		return err
	}
	if !slices.Equal(want, a.members) || a.found != (want != nil) {
		return fmt.Errorf("central k=%d b=%g: got %v, want %v", q.k, q.b, a.members, want)
	}
	return nil
}

func (ck *checker) decentral(q query, a answer) error {
	if a.found {
		if err := ck.valid(a.members, q.k, a.class, q.b); err != nil {
			return fmt.Errorf("decentral start=%d k=%d b=%g: %w", q.start, q.k, q.b, err)
		}
	} else if len(a.members) != 0 {
		return fmt.Errorf("decentral start=%d k=%d b=%g: not found but %d members", q.start, q.k, q.b, len(a.members))
	}
	if ck.ref != nil {
		res, err := ck.ref.Query(q.start, q.k, q.b)
		if err != nil {
			return err
		}
		if res.Found() != a.found {
			return fmt.Errorf("decentral start=%d k=%d b=%g: found=%v, sync engine found=%v",
				q.start, q.k, q.b, a.found, res.Found())
		}
	}
	return nil
}

// valid reports whether members are k distinct live hosts carrying
// Algorithm 1's certificate for the snapped class: two live hosts p, q
// predicted within the class's distance bound, with every member
// predicted within d(p,q) of both (members come from the candidate set
// S*pq of Theorem 3.1, truncated to k). On a tree metric that bounds
// every pairwise distance; the forest's median predictions are not a
// tree metric, so single pairs can exceed it, and strictPairs counts
// those separately.
func (ck *checker) valid(members []int, k int, class, b float64) error {
	if len(members) != k {
		return fmt.Errorf("%d members, want %d", len(members), k)
	}
	if class < b*(1-1e-9) {
		return fmt.Errorf("class %g below the requested %g", class, b)
	}
	seen := map[int]bool{}
	for _, u := range members {
		if seen[u] || !ck.live(u) {
			return fmt.Errorf("member %d repeated or not live", u)
		}
		seen[u] = true
	}
	bound := ck.c / class * (1 + 1e-9)
	// p and q lie within d(p,q) <= bound of every member.
	var cand []int
	for _, x := range ck.hosts {
		if !ck.live(x) {
			continue
		}
		near := true
		for _, m := range members {
			if x != m && ck.pred.Dist(x, m) > bound {
				near = false
				break
			}
		}
		if near {
			cand = append(cand, x)
		}
	}
	for i, p := range cand {
		for _, q := range cand[:i] {
			dpq := ck.pred.Dist(p, q)
			if dpq > bound {
				continue
			}
			ok := true
			for _, x := range members {
				if (x != p && ck.pred.Dist(x, p) > dpq) || (x != q && ck.pred.Dist(x, q) > dpq) {
					ok = false
					break
				}
			}
			if ok {
				return nil
			}
		}
	}
	return fmt.Errorf("no host pair certifies %v as a cluster for %.6g Mbps", members, class)
}

// strictPairs reports whether some pair of members is predicted below
// bw, the documented guarantee that tree metrics make exact.
func (ck *checker) strictPairs(members []int, bw float64) bool {
	maxDist := ck.c / bw * (1 + 1e-9)
	for i, u := range members {
		for _, v := range members[:i] {
			if ck.pred.Dist(u, v) > maxDist {
				return true
			}
		}
	}
	return false
}

// wrongPairs counts the returned pairs whose measured bandwidth is below
// the requested b: the paper's wrong-pair rate numerator and base.
func (ck *checker) wrongPairs(b float64, members []int) (pairs, wrong int) {
	for i, u := range members {
		for _, v := range members[:i] {
			pairs++
			if ck.measured(u, v) < b {
				wrong++
			}
		}
	}
	return pairs, wrong
}

// tally accumulates checked answers into the report: every answer is
// judged once, weighted by how many requests returned it.
type tally struct {
	pairs, wrongPairs float64
	answers, belowB   float64 // found answers; those with a pair predicted below b
}

func (t *tally) add(ck *checker, rep *report, q query, a answer, times int) {
	if err := ck.check(q, a); err != nil {
		rep.wrong += int64(times)
		rep.failed += int64(times)
		rep.problem("wrong answer: %v", err)
		return
	}
	p, w := ck.wrongPairs(q.b, a.members)
	t.pairs += float64(p * times)
	t.wrongPairs += float64(w * times)
	if a.found {
		t.answers += float64(times)
		if ck.strictPairs(a.members, q.b) {
			t.belowB += float64(times)
		}
	}
}

func (t *tally) finish(rep *report) {
	rep.findings = append(rep.findings, fmt.Sprintf(
		"%.0f of %.0f returned clusters hold a pair predicted below the requested bandwidth", t.belowB, t.answers))
	rep.e2e["wrong_pair_rate"] = math.NaN()
	if t.pairs > 0 {
		rep.e2e["wrong_pair_rate"] = t.wrongPairs / t.pairs
	}
}
