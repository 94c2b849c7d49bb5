package main

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"seqstream/internal/core"
)

// runTraced measures every layer on the workload that exercises it:
// it runs each workload traced and keeps the per-layer figures whose
// names start with that workload's name.
func runTraced(seed uint64, window time.Duration) (*result, error) {
	res := newResult()
	for _, w := range workloads {
		r, err := w.run(seed, window, true)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		res.attempted += r.attempted
		res.failed += r.failed
		for _, p := range r.problems {
			res.problem("%s: %s", w.name, p)
		}
		for k, n := range r.pcts.n {
			res.pcts.n[w.name+"."+k] = n
		}
		if r.pcts.err != nil && res.pcts.err == nil {
			res.pcts.err = fmt.Errorf("%s: %w", w.name, r.pcts.err)
		}
		for _, m := range perLayer {
			if name, ok := strings.CutPrefix(m.name, w.name+"."); ok {
				v, ok := r.values[name]
				if !ok {
					return nil, fmt.Errorf("%s: metric %s was not measured", w.name, name)
				}
				res.values[m.name] = v
			}
		}
	}
	return res, nil
}

// runPaced runs the paced workload. Untraced, it builds and warms the
// node cfg.setups times (set-up time is their median) and measures the
// last one over TCP. Traced, it measures three legs on fresh nodes —
// untraced over TCP, traced over TCP, traced core-direct — and reports
// the layers from the traced legs and the overhead as traced minus
// untraced.
func runPaced(cfg pacedConfig, seed uint64, window time.Duration, trace bool) (*result, error) {
	res := newResult()
	tab := newPatternTable(max(cfg.readAhead, cfg.reqSize))
	var tl tally
	defer func() {
		res.attempted, res.failed = tl.attempted.Load(), tl.failed.Load()
	}()

	// leg builds and warms a node, then measures it over the window.
	leg := func(traced, tcp bool, setups int, is func(*pacedNode) issuer) (*pacedLeg, []float64, error) {
		var setup []float64
		for i := 0; ; i++ {
			start := time.Now()
			n, err := buildPacedNode(cfg, tab, tcp)
			if err != nil {
				return nil, nil, err
			}
			streams := layoutPaced(cfg, rand.New(rand.NewSource(int64(seed))))
			iss := is(n)
			if err := warm(cfg, n, iss, streams, &tl); err != nil {
				n.close()
				return nil, nil, err
			}
			setup = append(setup, time.Since(start).Seconds())
			if i+1 < setups {
				n.close()
				continue
			}
			l, err := measurePaced(cfg, n, iss, streams, window, traced, &tl)
			n.close()
			return l, setup, err
		}
	}
	overTCP := func(goLat *dist) func(*pacedNode) issuer {
		return func(n *pacedNode) issuer { return &tcpIssuer{conns: n.conns, tab: tab, goLat: goLat} }
	}

	if !trace {
		l, setup, err := leg(false, true, cfg.setups, overTCP(nil))
		if err != nil {
			return nil, err
		}
		res.pacedEndToEnd(l)
		res.values["setup_s"] = median(setup)
		return res, nil
	}

	base, _, err := leg(false, true, 1, overTCP(nil))
	if err != nil {
		return nil, err
	}
	var goLat dist
	tr, _, err := leg(true, true, 1, overTCP(&goLat))
	if err != nil {
		return nil, err
	}
	var doneLat dist
	direct, _, err := leg(true, false, 1, func(n *pacedNode) issuer {
		return &coreIssuer{core: n.core, ingest: n.ingest, tab: tab, doneLat: &doneLat}
	})
	if err != nil {
		return nil, err
	}
	untraced := newResult()
	untraced.pacedEndToEnd(base)
	res.pacedEndToEnd(tr)
	p := res.pcts
	v := res.values
	ops := float64(tr.ops)

	v["gen.lag_p99_ms"] = p.ms("gen.lag", &tr.lag, 0.99)
	v["netserve.go_us_p50"] = p.us("netserve.go", &goLat, 0.5)
	v["core.done_ms_p50"] = p.ms("core.done", &doneLat, 0.5)
	v["core.done_ms_p99"] = p.ms("core.done", &doneLat, 0.99)
	v["netserve.self_ms_p50"] = v["read_p50_ms"] - v["core.done_ms_p50"]
	res.coreLayers(tr.st0, tr.st1)
	d := tr.ing1
	flushes := float64(d.Flushes - tr.ing0.Flushes)
	v["ingest.flushes_per_mb"] = ratio(flushes, float64(d.BytesAccepted-tr.ing0.BytesAccepted)/1e6)
	v["ingest.forced_flush_frac"] = ratio(float64(d.ForcedFlushes-tr.ing0.ForcedFlushes), flushes)
	v["bufpool.miss_ratio"] = ratio(float64(tr.pool1.Misses-tr.pool0.Misses), float64(tr.pool1.Gets-tr.pool0.Gets))
	v["bufpool.peak_out_mb"] = float64(tr.pool1.PeakBytesOut) / 1e6
	v["flight.events_per_op"] = ratio(float64(tr.seen1-tr.seen0), ops)
	v["health.tick_us_p50"] = p.us("health.tick", &tr.ticks, 0.5)
	v["health.tick_us_p99"] = p.us("health.tick", &tr.ticks, 0.99)
	v["health.events_lost"] = float64(tr.lost1 - tr.lost0)
	st0, st1 := tr.st0, tr.st1
	scored := float64((st1.SLOOnTime + st1.SLOLate + st1.SLOMissed) - (st0.SLOOnTime + st0.SLOLate + st0.SLOMissed))
	v["slo.on_time_frac"] = ratio(float64(st1.SLOOnTime-st0.SLOOnTime), scored)
	v["trace.cpu_overhead_us_per_op"] = v["proc.cpu_us_per_op"] - untraced.values["proc.cpu_us_per_op"]
	v["trace.read_p50_overhead_ms"] = v["read_p50_ms"] - untraced.values["read_p50_ms"]
	v["proc.cpu_us_per_op"] = untraced.values["proc.cpu_us_per_op"]
	if direct.ops == 0 {
		res.problem("core-direct leg completed no operation")
	}
	return res, nil
}

// pacedEndToEnd fills the end-to-end figures from one leg. Each
// latency figure is the exact percentile within each slot, taken at
// the slots' lower quartile: on a shared host whole seconds go to CPU
// steal, and the lower quartile ignores up to three slots in four of
// them, where the median ignored only half. CPU per op is the median
// over slots.
func (r *result) pacedEndToEnd(l *pacedLeg) {
	v, p := r.values, r.pcts
	v["read_mb_s"] = float64(l.readBytes) / l.window.Seconds() / 1e6
	pct := func(name string, lat func(*slot) *dist, q float64) float64 {
		var xs []float64
		for _, sl := range l.slots {
			xs = append(xs, p.ms(name, lat(sl), q))
		}
		return lowerQuartile(xs)
	}
	reads := func(sl *slot) *dist { return &sl.readLat }
	writes := func(sl *slot) *dist { return &sl.writeLat }
	v["read_p50_ms"] = pct("read.slot", reads, 0.5)
	v["read_p99_ms"] = pct("read.slot", reads, 0.99)
	for _, sl := range l.slots {
		x, _, _ := sl.readLat.pct(0.99)
		r.slotP99 = append(r.slotP99, float64(x)/float64(time.Millisecond))
	}
	v["write_p50_ms"] = pct("write.slot", writes, 0.5)
	v["write_p99_ms"] = pct("write.slot", writes, 0.99)
	var cpu []float64
	for _, sl := range l.slots {
		cpu = append(cpu, ratio(float64(sl.cpu)/float64(time.Microsecond), float64(sl.ops.Load())))
	}
	v["proc.cpu_us_per_op"] = median(cpu)
	v["live_heap_mb"] = l.liveHeap
	p.n["slots"] = len(l.slots)
	if l.ops == 0 {
		r.problem("no operation completed in the window")
	}
}

// coreLayers fills the scheduler ratios from two Stats snapshots.
func (r *result) coreLayers(st0, st1 core.Stats) {
	v := r.values
	d := func(a, b int64) float64 { return float64(b - a) }
	fetches := d(st0.Fetches, st1.Fetches)
	v["core.hit_ratio"] = ratio(d(st0.BufferHits, st1.BufferHits), d(st0.Requests, st1.Requests))
	v["core.fetch_per_read_byte"] = ratio(d(st0.BytesFetched, st1.BytesFetched), d(st0.BytesDelivered, st1.BytesDelivered))
	v["core.evictions_per_fetch"] = ratio(d(st0.BuffersEvicted, st1.BuffersEvicted), fetches)
	v["core.steered_frac"] = ratio(d(st0.SteeredFetches, st1.SteeredFetches), fetches)
	specs := d(st0.Speculations, st1.Speculations)
	v["core.spec_per_fetch"] = ratio(specs, fetches)
	v["core.spec_win_ratio"] = ratio(d(st0.SpecWins, st1.SpecWins), specs)
}

// devLayers fills the device figures from the timing wrapper.
func (r *result) devLayers(ds devStats, ops float64) {
	v, p := r.values, r.pcts
	v["dev.reads_per_op"] = ratio(float64(ds.reads), ops)
	v["dev.read_ms_p50"] = p.ms("dev.read", ds.lat, 0.5)
	v["dev.read_ms_p99"] = p.ms("dev.read", ds.lat, 0.99)
	v["dev.inflight_mean"] = ds.inflightMean
}

// runSim repeats the simulated workload with the same seed until the
// window has been spent (at least twice), checking that every rep
// gives the same virtual-time results. Traced, it alternates untraced
// and traced reps, which must agree too.
func runSim(cfg simConfig, seed uint64, window time.Duration, trace bool) (*result, error) {
	res := newResult()
	// Reps leave a summary, and only the first traced rep is kept whole:
	// samples retained from earlier reps would count in the live heap
	// of later ones.
	type summary struct {
		v                       virtual
		cpuPerOp, setup, heapMB float64
	}
	var plain, traced []summary
	var tr *simRep
	v, p := res.values, res.pcts
	deadline := time.Now().Add(window)
	for len(plain)+len(traced) < 2 || time.Now().Before(deadline) {
		isTraced := trace && len(traced) < len(plain)
		rep, err := runSimRep(cfg, seed, isTraced)
		if err != nil {
			return nil, err
		}
		res.attempted += rep.attempted
		res.failed += rep.failed
		sum := summary{
			v:        rep.virtual(),
			cpuPerOp: ratio(float64(rep.cpu)/float64(time.Microsecond), float64(rep.ops)),
			setup:    rep.setup.Seconds(),
			heapMB:   rep.liveHeap,
		}
		switch {
		case isTraced:
			if tr == nil {
				tr = rep
			}
			traced = append(traced, sum)
		default:
			if len(plain) == 0 {
				v["read_mb_s"] = float64(rep.readBytes) / cfg.measure.Seconds() / 1e6
				v["read_p50_ms"] = p.ms("read", &rep.readLat, 0.5)
				v["read_p99_ms"] = p.ms("read", &rep.readLat, 0.99)
				v["write_p50_ms"] = p.ms("write", &rep.writeLat, 0.5)
				v["write_p99_ms"] = p.ms("write", &rep.writeLat, 0.99)
			}
			plain = append(plain, sum)
		}
	}
	want := plain[0].v
	for i, sum := range append(append([]summary(nil), plain[1:]...), traced...) {
		if sum.v != want {
			kind := "untraced"
			if i >= len(plain)-1 {
				kind = "traced"
			}
			res.problem("determinism: a %s rep with seed %d gave %+v, the first rep %+v", kind, seed, sum.v, want)
		}
	}

	pick := func(sums []summary, f func(summary) float64) float64 {
		var xs []float64
		for _, s := range sums {
			xs = append(xs, f(s))
		}
		return median(xs)
	}
	cpuPerOp := func(s summary) float64 { return s.cpuPerOp }
	v["setup_s"] = pick(plain, func(s summary) float64 { return s.setup })
	v["proc.cpu_us_per_op"] = pick(plain, cpuPerOp)
	v["live_heap_mb"] = pick(plain, func(s summary) float64 { return s.heapMB })
	res.pcts.n["reps.untraced"] = len(plain)
	res.pcts.n["reps.traced"] = len(traced)
	if !trace {
		return res, nil
	}

	ops := float64(tr.ops)
	v["core.submit_us_p50"] = p.us("core.submit", &tr.submitLat, 0.5)
	v["core.submit_us_p99"] = p.us("core.submit", &tr.submitLat, 0.99)
	res.coreLayers(tr.st0, tr.st1)
	v["core.dispatched_mean"] = mean(tr.dispatched)
	v["core.candidates_mean"] = mean(tr.candidates)
	res.devLayers(tr.dev, ops)

	var busy, seek, media, delivered float64
	for i := range tr.disk1 {
		a, b := tr.disk0[i], tr.disk1[i]
		busy += float64(b.BusyTime - a.BusyTime)
		seek += float64(b.SeekTime-a.SeekTime) / float64(time.Millisecond)
		media += float64(b.BytesMedia - a.BytesMedia)
		delivered += float64(b.BytesRead - a.BytesRead)
	}
	v["disk.busy_frac"] = busy / (float64(len(tr.disk1)) * float64(cfg.measure))
	v["disk.seek_ms_per_mb"] = ratio(seek, delivered/1e6)
	v["disk.prefetch_eff"] = ratio(delivered, media)
	var hits, reqs float64
	for i := range tr.ctl1 {
		hits += float64(tr.ctl1[i].CacheHits - tr.ctl0[i].CacheHits)
		reqs += float64(tr.ctl1[i].Requests - tr.ctl0[i].Requests)
	}
	v["controller.cache_hit_ratio"] = ratio(hits, reqs)
	v["trace.cpu_overhead_us_per_op"] = pick(traced, cpuPerOp) - v["proc.cpu_us_per_op"]
	return res, nil
}

// lowerQuartile returns the nearest-rank 25th percentile of xs.
func lowerQuartile(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)+3)/4-1]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
