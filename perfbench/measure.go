package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"bwcluster/internal/telemetry"
)

// clients is the closed-loop client count: one per CPU, at most two.
func clients() int {
	n := runtime.NumCPU()
	if n > 2 {
		n = 2
	}
	return n
}

// lat collects the latencies, in microseconds, of one client's
// operations in the timed window. A failed operation has latency +Inf,
// so it counts beyond every percentile. float32 keeps microsecond
// precision to seven digits and halves the memory of runs that record
// millions of operations.
type lat struct {
	central, decentral []float32
}

func (l *lat) add(central bool, d time.Duration, ok bool) {
	us := float32(math.Inf(1))
	if ok {
		us = float32(d.Nanoseconds()) / 1e3
	}
	if central {
		l.central = append(l.central, us)
	} else {
		l.decentral = append(l.decentral, us)
	}
}

// slice is one replicate's timed load: its clients' samples over span.
type slice struct {
	ls   []*lat
	span time.Duration
}

// loadMetrics fills qps and the latency percentiles from every sample of
// every replicate, pooled: qps is the successful operations over the
// total timed seconds, so a stall in any replicate lowers it in
// proportion, and each percentile is taken over all operations of its
// class, so the slow ones of every replicate count.
func (r *report) loadMetrics(parts []slice) {
	var total time.Duration
	var okOps int
	var qps []float64
	var nc, nd int
	for _, sl := range parts {
		for _, l := range sl.ls {
			nc, nd = nc+len(l.central), nd+len(l.decentral)
		}
	}
	central, decentral := make([]float32, 0, nc), make([]float32, 0, nd)
	for _, sl := range parts {
		ok := 0
		for _, l := range sl.ls {
			central = append(central, l.central...)
			decentral = append(decentral, l.decentral...)
			for _, xs := range [][]float32{l.central, l.decentral} {
				for _, us := range xs {
					if !math.IsInf(float64(us), 1) {
						ok++
					}
				}
			}
		}
		total += sl.span
		okOps += ok
		qps = append(qps, float64(ok)/sl.span.Seconds())
	}
	r.e2e["qps"] = float64(okOps) / total.Seconds()
	r.findings = append(r.findings, fmt.Sprintf("qps per replicate: %.1f", qps))
	for _, c := range []struct {
		name string
		xs   []float32
	}{{"central", central}, {"decentral", decentral}} {
		slices.Sort(c.xs)
		for _, p := range []float64{50, 90, 99} {
			r.e2e[fmt.Sprintf("%s_p%.0f_ms", c.name, p)] = pct(c.xs, p) / 1e3
		}
		r.findings = append(r.findings, fmt.Sprintf("%s latency ms over the run: n=%d p50=%.3f p90=%.3f p99=%.3f p99.9=%.3f max=%.3f",
			c.name, len(c.xs), pct(c.xs, 50)/1e3, pct(c.xs, 90)/1e3, pct(c.xs, 99)/1e3, pct(c.xs, 99.9)/1e3, pct(c.xs, 100)/1e3))
	}
}

// pct is the nearest-rank percentile of sorted xs (NaN when empty).
func pct[T float32 | float64](sorted []T, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(sorted[i])
}

func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return pct(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// runClients runs fn on n goroutines and waits for all of them.
func runClients(n int, fn func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			fn(w)
		}(w)
	}
	wg.Wait()
}

// cpuSeconds is the process's user+system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// idleWindow sleeps for d and returns CPU cores used meanwhile.
func idleWindow(d time.Duration) float64 {
	c0, t0 := cpuSeconds(), time.Now()
	time.Sleep(d)
	return (cpuSeconds() - c0) / time.Since(t0).Seconds()
}

// heapMB forces a GC and returns the live Go heap in MB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// counters is a snapshot of every series in the process's telemetry
// registry, keyed as exposed ("name" or `name{label="v"}`).
type counters map[string]float64

func readCounters() counters {
	var buf bytes.Buffer
	out := counters{}
	if err := telemetry.Default().WritePrometheus(&buf); err != nil {
		return out
	}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// delta returns after-before for one series.
func (c counters) delta(before counters, series string) float64 {
	return c[series] - before[series]
}

// fingerprint identifies the host and the run for every result record.
func fingerprint(cfg *config) map[string]any {
	fp := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"trace":      cfg.trace,
		"cpu":        cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     commit(),
		"source":     sourceDigest("."),
	}
	return fp
}

// hostSteal reads the host's cumulative CPU ticks and the share a
// hypervisor stole from /proc/stat (zeros where it is unavailable).
func hostSteal() (steal, total uint64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0
	}
	for i, f := range fields[1:] {
		v, _ := strconv.ParseUint(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// commit is the VCS revision the binary was built from, when the build
// ran inside a git checkout; otherwise "unknown" (sourceDigest still
// identifies the code).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		rev, dirty := "", false
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rev = s.Value
			case "vcs.modified":
				dirty = s.Value == "true"
			}
		}
		if rev != "" {
			if dirty {
				rev += "-dirty"
			}
			return rev
		}
	}
	return "unknown"
}

// sourceDigest hashes the module's Go sources under root (the program
// the benchmark measures), so a result records the exact code even
// outside a git checkout.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if n := d.Name(); p != root && (strings.HasPrefix(n, ".") || n == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && filepath.Base(p) != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		h.Write([]byte(filepath.ToSlash(p)))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
