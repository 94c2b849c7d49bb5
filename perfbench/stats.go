package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// minTail is how many samples must lie beyond a reported percentile.
const minTail = 10

// dist is a set of raw duration samples. Percentiles are exact order
// statistics of the samples, never histogram bucket bounds.
type dist struct {
	mu sync.Mutex
	s  []time.Duration
}

func (d *dist) add(v time.Duration) {
	d.mu.Lock()
	d.s = append(d.s, v)
	d.mu.Unlock()
}

func (d *dist) n() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.s)
}

// pct returns the nearest-rank q-quantile and the sample count. It
// fails when fewer than minTail samples lie beyond the quantile, so a
// tail figure is never reported from a handful of samples.
func (d *dist) pct(q float64) (time.Duration, int, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(d.s)
	if float64(n)*(1-q) < minTail-1e-9 {
		return 0, n, fmt.Errorf("p%g needs %d samples beyond it, have %d samples in all", q*100, minTail, n)
	}
	sort.Slice(d.s, func(i, j int) bool { return d.s[i] < d.s[j] })
	idx := int(math.Ceil(q*float64(n))) - 1
	if idx < 0 {
		idx = 0
	}
	return d.s[idx], n, nil
}

// pctSet collects the percentiles a workload reports, the sample count
// behind each, and the first percentile that could not be supported.
type pctSet struct {
	n   map[string]int
	err error
}

func newPctSet() *pctSet { return &pctSet{n: make(map[string]int)} }

// ms and us read a percentile of d into the given unit, remembering n
// under name.
func (p *pctSet) ms(name string, d *dist, q float64) float64 {
	return p.get(name, d, q, time.Millisecond)
}

func (p *pctSet) us(name string, d *dist, q float64) float64 {
	return p.get(name, d, q, time.Microsecond)
}

func (p *pctSet) get(name string, d *dist, q float64, unit time.Duration) float64 {
	v, n, err := d.pct(q)
	if old, ok := p.n[name]; !ok || n < old {
		p.n[name] = n // the smallest sample behind any use of name
	}
	if err != nil {
		if p.err == nil {
			p.err = fmt.Errorf("%s: %w", name, err)
		}
		return 0
	}
	return float64(v) / float64(unit)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// ratio is a/b, or 0 when b is 0 (the layer did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuTime returns the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeapMB returns the heap the program retains: the bytes a full
// collection finds reachable. Two collections run first, so buffers
// parked in sync.Pool caches (kept through one cycle as victims) are
// dropped and do not count. The live heap is sampled once, after the
// window: within a window the runtime collects only once or twice, so
// a peak over the window is set by when those cycles happen to land.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// stamp identifies the build and machine a result came from.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       uint64 `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func newStamp(workload string, seed uint64, seconds int, trace bool) stamp {
	return stamp{
		Workload:   workload,
		Seed:       seed,
		Seconds:    seconds,
		Trace:      trace,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Commit:     commitID(),
	}
}

// commitID names the code under test: the git commit when the wrapper
// script found one, else a hash of the Go sources and module files of
// the tree the benchmark was built from.
func commitID() string {
	if c := os.Getenv("PERFBENCH_COMMIT"); c != "" {
		return "git:" + c
	}
	h := sha256.New()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" && d.Name() != "go.sum" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "tree-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
