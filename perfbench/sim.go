package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/controller"
	"seqstream/internal/core"
	"seqstream/internal/disk"
	"seqstream/internal/iostack"
	"seqstream/internal/sim"
)

// simConfig sizes a workload on the discrete-event simulator. Rates
// and latencies run on the virtual clock, so they repeat exactly for a
// seed; CPU and set-up time run on the wall clock.
type simConfig struct {
	// perDisk closed-loop synchronous read streams run on every disk.
	perDisk int
	// reqSize is the write size and the mean read size.
	reqSize int64
	core    core.Config
	// faults delay read-ahead fetches (reads of at least R bytes).
	faults []blockdev.FaultRule
	// writeStreams open-loop ingest streams write reqSize every
	// writePeriod, acknowledged once their chunk is on the disk.
	writeStreams int
	writePeriod  time.Duration
	chunk        int64
	warmup       time.Duration
	measure      time.Duration
	// snapEvery is the virtual period at which traced reps sample the
	// scheduler's dispatch set and candidate queue.
	snapEvery time.Duration
}

// crowdedConfig is the paper's many-streams regime: 100 streams per
// disk on the 8-disk testbed with M far below S·R, so the dispatch set
// is smaller than the stream count and rotation, staging, repump and
// eviction do the work.
func crowdedConfig() simConfig {
	c := core.Config{
		ReadAhead:         512 << 10,
		RequestsPerStream: 1,
		Memory:            64 << 20,
		GCPeriod:          250 * time.Millisecond,
		EvictIdle:         500 * time.Millisecond,
	}
	return simConfig{
		perDisk: 100, reqSize: 64 << 10, core: c,
		writeStreams: 8, writePeriod: 40 * time.Millisecond, chunk: 1 << 20,
		warmup: 10 * time.Second, measure: 20 * time.Second,
		snapEvery: 50 * time.Millisecond,
	}
}

// stragglerConfig has one disk about ten times slower than the others
// and a second that stalls on every 16th fetch, with replicas,
// steering and speculation on, so the replica machinery sets the
// tail, in the spirit of TestSpeculationTailLatency64Disks. With two
// streams per disk a healthy disk's read-ahead fetch takes about 50 ms
// (replicas share the load), so an extra 450 ms is about ten times
// that. Steering routes around the slow disk; the stalls are what
// speculation is for.
func stragglerConfig() simConfig {
	c := core.Config{
		ReadAhead:         512 << 10,
		RequestsPerStream: 1,
		Memory:            8 * 2 * 2 * (512 << 10),
		GCPeriod:          250 * time.Millisecond,
		EvictIdle:         500 * time.Millisecond,
		WindowSpan:        time.Minute,
		Replicas:          2,
		SteerFactor:       2,
		SpecQuantile:      0.9,
		SpecMinSamples:    4,
	}
	return simConfig{
		perDisk: 2, reqSize: 64 << 10, core: c,
		faults: []blockdev.FaultRule{
			{Disk: 0, Mode: blockdev.FaultDelay, MinLen: c.ReadAhead, Delay: 450 * time.Millisecond},
			{Disk: 1, Mode: blockdev.FaultDelay, MinLen: c.ReadAhead, Every: 16, Delay: 450 * time.Millisecond},
		},
		writeStreams: 2, writePeriod: 10 * time.Millisecond, chunk: 1 << 20,
		warmup: 30 * time.Second, measure: 60 * time.Second,
		snapEvery: 50 * time.Millisecond,
	}
}

// simRep is one simulated run from build to the end of the window.
type simRep struct {
	setup     time.Duration // wall: build plus virtual warm-up
	cpu       time.Duration // process CPU over the measured window
	liveHeap  float64       // after the window
	attempted int64
	failed    int64
	ops       int64 // operations completed inside the window
	readBytes int64
	readLat   dist // virtual
	writeLat  dist // virtual

	// Traced reps only.
	submitLat    dist // wall time inside Server.Submit
	dispatched   []float64
	candidates   []float64
	st0, st1     core.Stats
	disk0, disk1 []disk.Stats
	ctl0, ctl1   []controller.Stats
	dev          devStats
}

// virtual is the part of a rep that must repeat exactly.
type virtual struct {
	ops, readBytes, failed int64
	readP50, readP99       time.Duration
	writeP50, writeP99     time.Duration
}

// virtual summarizes the rep; a percentile the samples cannot support
// reads 0 here and fails the run where the first rep is reported.
func (r *simRep) virtual() virtual {
	v := virtual{ops: r.ops, readBytes: r.readBytes, failed: r.failed}
	v.readP50, _, _ = r.readLat.pct(0.5)
	v.readP99, _, _ = r.readLat.pct(0.99)
	v.writeP50, _, _ = r.writeLat.pct(0.5)
	v.writeP99, _, _ = r.writeLat.pct(0.99)
	return v
}

// simStack is the 8-disk testbed with every drive's rotational-latency
// generator seeded from the run's seed.
func simStack(seed uint64) iostack.Config {
	return iostack.Testbed8Config(iostack.Options{DiskConfig: func(s uint64) disk.Config {
		return disk.ProfileWD800JD(s*0x9e3779b97f4a7c15 ^ seed)
	}})
}

// minHop and maxHop bound the seeded one-way client-to-node delay of
// the simulated read streams: round trips of 16–24 µs, as on a fast
// datacenter network. The range is narrow so that the seed moves the
// median read by a few microseconds, and the node's own time dominates.
const (
	minHop = 8 * time.Microsecond
	maxHop = 12 * time.Microsecond
)

type sstream struct {
	disk int
	off  int64         // next request's offset
	hop  time.Duration // one-way network delay between client and node
}

func runSimRep(cfg simConfig, seed uint64, traced bool) (*simRep, error) {
	rep := &simRep{}
	wallStart := time.Now()
	eng := sim.NewEngine()
	host, err := iostack.New(eng, simStack(seed))
	if err != nil {
		return nil, err
	}
	simDev, err := blockdev.NewSimDevice(host)
	if err != nil {
		return nil, err
	}
	clock := blockdev.NewSimClock(eng)
	var dev blockdev.Device = simDev
	if len(cfg.faults) > 0 {
		dev, err = blockdev.NewScriptDevice(simDev, clock, cfg.faults)
		if err != nil {
			return nil, err
		}
	}
	var timed *timedDevice
	if traced {
		dev, timed = wrapTimed(dev, clock.Now)
	}
	srv, err := core.NewServer(dev, clock, cfg.core)
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	ing, err := core.NewIngest(dev, clock, core.IngestConfig{ChunkSize: cfg.chunk, Memory: 16 * cfg.chunk, AckOnFlush: true})
	if err != nil {
		return nil, err
	}

	warmEnd := cfg.warmup
	measureEnd := cfg.warmup + cfg.measure
	inWindow := func(t time.Duration) bool { return t >= warmEnd && t <= measureEnd }
	stopped := false
	rng := rand.New(rand.NewSource(int64(seed)))
	disks := host.NumDisks()
	capacity := host.DiskCapacity(0)
	readSpan := capacity / 4 * 3
	spacing := readSpan / int64(cfg.perDisk)
	spacing -= spacing % cfg.reqSize

	// issue runs when a stream's request reaches the node; its client
	// sent it one hop earlier and sees the reply one hop after Done,
	// then sends the next request at once.
	var issue func(st *sstream)
	issue = func(st *sstream) {
		if stopped {
			return
		}
		off := st.off
		st.off += cfg.reqSize
		start := clock.Now()
		rep.attempted++
		var t0 time.Time
		if traced {
			t0 = time.Now()
		}
		err := srv.Submit(core.Request{Disk: st.disk, Offset: off, Length: cfg.reqSize, Done: func(r core.Response) {
			received := clock.Now() + st.hop
			if r.Err != nil || r.End < r.Start {
				rep.failed++
				return
			}
			if inWindow(received) {
				rep.ops++
				rep.readBytes += cfg.reqSize
				rep.readLat.add(received - (start - st.hop))
			}
			clock.Schedule(2*st.hop, func() { issue(st) })
		}})
		if traced && inWindow(start) {
			rep.submitLat.add(time.Since(t0))
		}
		if err != nil {
			rep.failed++
		}
	}
	// Each read stream's client sits a seeded one-way network delay
	// from the node, as the paper's clients sit across a network.
	// Without it the median read is a staged hit whose latency is the
	// simulated host's fixed per-request charge, the same for every
	// seed.
	for d := 0; d < disks; d++ {
		for j := 0; j < cfg.perDisk; j++ {
			st := &sstream{
				disk: d,
				off:  int64(j)*spacing + rng.Int63n(spacing/cfg.reqSize/8)*cfg.reqSize,
				hop:  minHop + time.Duration(rng.Int63n(int64(maxHop-minHop))),
			}
			clock.Schedule(st.hop, func() { issue(st) })
		}
	}

	// Write streams go round the disks from the top down, so they miss
	// the faulted disks (the lowest), and write above the read span.
	healthy := disks - len(cfg.faults)
	for w := 0; w < cfg.writeStreams; w++ {
		d := disks - 1 - w%healthy
		base := readSpan + int64(w/healthy)*(capacity-readSpan)/int64(cfg.writeStreams)
		base -= base % cfg.reqSize
		var k int64
		var tick func()
		tick = func() {
			if stopped {
				return
			}
			due := clock.Now()
			rep.attempted++
			err := ing.Write(d, base+k*cfg.reqSize, nil, cfg.reqSize, func(err error) {
				end := clock.Now()
				if err != nil {
					rep.failed++
					return
				}
				if inWindow(end) {
					rep.ops++
					rep.writeLat.add(end - due)
				}
			})
			k++
			if err != nil {
				rep.failed++
			}
			clock.Schedule(cfg.writePeriod, tick)
		}
		clock.Schedule(time.Duration(rng.Int63n(int64(cfg.writePeriod))), tick)
	}

	if traced {
		var snap func()
		snap = func() {
			if stopped {
				return
			}
			if inWindow(clock.Now()) {
				s := srv.Snapshot()
				rep.dispatched = append(rep.dispatched, float64(s.DispatchedStreams))
				rep.candidates = append(rep.candidates, float64(s.CandidateQueue))
			}
			clock.Schedule(cfg.snapEvery, snap)
		}
		clock.Schedule(cfg.snapEvery, snap)
	}

	if err := eng.RunUntil(sim.Time(warmEnd)); err != nil {
		return nil, err
	}
	rep.setup = time.Since(wallStart)
	hostStats := func() ([]disk.Stats, []controller.Stats) {
		ds := make([]disk.Stats, disks)
		for i := range ds {
			ds[i] = host.Disk(i).Stats()
		}
		cs := make([]controller.Stats, host.Controllers())
		for i := range cs {
			cs[i] = host.Controller(i).Stats()
		}
		return ds, cs
	}
	if traced {
		rep.st0 = srv.Stats()
		rep.disk0, rep.ctl0 = hostStats()
		timed.reset()
	}
	cpu0 := cpuTime()
	if err := eng.RunUntil(sim.Time(measureEnd)); err != nil {
		return nil, err
	}
	rep.cpu = cpuTime() - cpu0
	rep.liveHeap = liveHeapMB()
	runtime.KeepAlive(eng)
	runtime.KeepAlive(ing)
	if traced {
		rep.st1 = srv.Stats()
		rep.disk1, rep.ctl1 = hostStats()
		rep.dev = timed.stats()
	}
	stopped = true
	if rep.ops == 0 {
		return nil, fmt.Errorf("sim: no operation completed in the window")
	}
	return rep, nil
}
