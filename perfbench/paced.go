package main

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/bufpool"
	"seqstream/internal/controller"
	"seqstream/internal/core"
	"seqstream/internal/flight"
	"seqstream/internal/health"
	"seqstream/internal/netserve"
	"seqstream/internal/obs"
)

// pacedConfig sizes the paced workload: an open loop of media-rate
// read and write streams over loopback TCP in v2 payload mode, with
// the node's full observability stack attached.
type pacedConfig struct {
	disks          int
	streamsPerDisk int
	// writeStreams is sized so that every slot holds more than a
	// thousand writes, enough samples for an exact p99 per slot.
	writeStreams int
	reqSize      int64
	readAhead    int64
	// period is how often each stream issues one request.
	period   time.Duration
	capacity int64
	// conns is the number of TCP connections the streams share.
	conns     int
	sloTarget time.Duration
	// healthEvery is how often the benchmark ticks the health engine.
	healthEvery time.Duration
	// warmReqs is how many requests each stream issues back to back
	// during set-up, enough for classification and staged hits.
	warmReqs int
	// slot is the length of the sub-windows the end-to-end figures
	// are taken in; each figure is the median over the slots.
	slot time.Duration
	// setups is how many times a run builds and warms a node to time
	// set-up; the last one is measured.
	setups int
	// drain bounds the wait for outstanding requests after the
	// measurement window; later completions count as failed.
	drain time.Duration

	// corruptRead flips one byte of that (1-based) device read, and
	// refuse adds one read past the end of disk 0. Tests use them to
	// prove the benchmark's checks fail a run.
	corruptRead int64
	refuse      bool
}

func defaultPaced() pacedConfig {
	return pacedConfig{
		disks:          8,
		streamsPerDisk: 16,
		writeStreams:   40,
		reqSize:        64 << 10,
		readAhead:      256 << 10,
		period:         31 * time.Millisecond,
		capacity:       8 << 30,
		conns:          2,
		sloTarget:      50 * time.Millisecond,
		healthEvery:    10 * time.Millisecond,
		warmReqs:       8,
		slot:           time.Second,
		setups:         9,
		drain:          10 * time.Second,
	}
}

func (c pacedConfig) readStreams() int { return c.disks * c.streamsPerDisk }

// memory is M = 2·S·R: every read stream can hold two read-aheads.
func (c pacedConfig) memory() int64 { return 2 * int64(c.readStreams()) * c.readAhead }

// pacedNode is one storage node built the way streamnode builds it,
// with the benchmark's device stand-in underneath.
type pacedNode struct {
	dev    *tableDevice
	core   *core.Server
	ingest *core.Ingest
	srv    *netserve.Server
	health *health.Engine
	spans  *obs.SpanLog
	conns  []*netserve.Client
}

// buildPacedNode assembles device, scheduler, ingest, health engine and
// (with tcp) the netserve server and its client connections.
func buildPacedNode(cfg pacedConfig, tab *patternTable, tcp bool) (n *pacedNode, err error) {
	n = &pacedNode{dev: &tableDevice{disks: cfg.disks, capacity: cfg.capacity, tab: tab, corruptRead: cfg.corruptRead}}
	defer func() {
		if err != nil {
			n.close()
		}
	}()
	clock := blockdev.NewRealClock()

	reg := obs.NewRegistry()
	controller.NewObs(reg)
	obs.RegisterRuntimeMetrics(reg)
	if n.spans, err = obs.NewSpanLog(clock.Now, 4096); err != nil {
		return n, err
	}
	rec, err := flight.New(clock.Now, cfg.disks, 0)
	if err != nil {
		return n, err
	}
	ccfg := core.Config{
		ReadAhead:         cfg.readAhead,
		RequestsPerStream: 1,
		Memory:            cfg.memory(),
		Obs:               core.NewObs(reg, n.spans),
		Flight:            rec,
		WindowSpan:        time.Minute,
		SLOTarget:         cfg.sloTarget,
	}
	if n.core, err = core.NewServer(n.dev, clock, ccfg); err != nil {
		return n, err
	}
	if n.ingest, err = core.NewIngest(n.dev, clock, core.IngestConfig{
		ChunkSize: 1 << 20,
		Memory:    cfg.memory(),
		Pool:      n.core.Pool(),
	}); err != nil {
		return n, err
	}
	// The benchmark ticks the engine itself (see measurePaced), so the
	// tick cost can be timed; the engine's own loop stays off.
	if n.health, err = health.NewEngine(rec, n.core, clock, health.Config{
		Interval: cfg.healthEvery,
		Window:   time.Minute,
	}); err != nil {
		return n, err
	}
	n.health.SetSLO(n.core.SLO())
	if !tcp {
		return n, nil
	}

	if n.srv, err = netserve.NewServerOpts(n.core, "127.0.0.1:0", netserve.ServerOptions{Payload: true}); err != nil {
		return n, err
	}
	nsObs := netserve.NewObs(reg)
	if err = nsObs.AttachWindow(reg, clock.Now, time.Minute); err != nil {
		return n, err
	}
	nsObs.AttachSLO(reg, n.core.SLO().Deadline)
	n.srv.SetObs(nsObs)
	n.srv.SetFlight(rec)
	n.srv.EnableWrites(n.ingest)
	for i := 0; i < cfg.conns; i++ {
		c, err := netserve.DialOpts(n.srv.Addr(), netserve.ClientOptions{Payload: true})
		if err != nil {
			return n, err
		}
		n.conns = append(n.conns, c)
		if !c.Payload() {
			return n, errors.New("paced: server did not grant the v2 payload extension")
		}
	}
	return n, nil
}

func (n *pacedNode) close() {
	for _, c := range n.conns {
		c.Close()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	if n.health != nil {
		n.health.Close()
	}
	if n.ingest != nil {
		n.ingest.Close()
	}
	if n.core != nil {
		n.core.Close()
	}
	if n.spans != nil {
		n.spans.Close()
	}
}

// issuer sends one operation into the node. done runs exactly once,
// with whether the operation succeeded and its output checked out,
// unless issuing itself fails.
type issuer interface {
	read(stream, disk int, off, n int64, done func(ok bool)) error
	write(stream, disk int, off, n int64, done func(ok bool)) error
}

// tcpIssuer drives the node over its netserve connections, checking
// every status, payload frame, offset echo and payload byte.
type tcpIssuer struct {
	conns []*netserve.Client
	tab   *patternTable
	// goLat, when non-nil, times each Client.Go call.
	goLat *dist
}

func (t *tcpIssuer) issue(stream, disk int, off, n int64, flags uint16, done func(netserve.Response)) error {
	c := t.conns[disk%len(t.conns)]
	var start time.Time
	if t.goLat != nil {
		start = time.Now()
	}
	err := c.Go(stream, uint16(disk), off, n, flags, func(resp netserve.Response, _ time.Duration) { done(resp) })
	if t.goLat != nil {
		t.goLat.add(time.Since(start))
	}
	return err
}

func (t *tcpIssuer) read(stream, disk int, off, n int64, done func(bool)) error {
	return t.issue(stream, disk, off, n, netserve.FlagWantData, func(resp netserve.Response) {
		ok := resp.Status == netserve.StatusOK && resp.Flags&netserve.RespPayload != 0 &&
			resp.Offset == off && int64(len(resp.Data)) == n && bytes.Equal(resp.Data, t.tab.at(disk, off, n))
		resp.Release()
		done(ok)
	})
}

func (t *tcpIssuer) write(stream, disk int, off, n int64, done func(bool)) error {
	return t.issue(stream, disk, off, n, netserve.FlagWrite, func(resp netserve.Response) {
		resp.Release()
		done(resp.Status == netserve.StatusOK)
	})
}

// coreIssuer drives the scheduler and ingest directly, in process:
// the traced run's core-direct leg, which times a read from
// Server.Submit to Done without netserve in the way.
type coreIssuer struct {
	core    *core.Server
	ingest  *core.Ingest
	tab     *patternTable
	doneLat *dist
}

func (c *coreIssuer) read(_, disk int, off, n int64, done func(bool)) error {
	start := time.Now()
	return c.core.Submit(core.Request{Disk: disk, Offset: off, Length: n, Done: func(r core.Response) {
		c.doneLat.add(time.Since(start))
		ok := r.Err == nil && bytes.Equal(r.Data, c.tab.at(disk, off, n))
		r.Release()
		done(ok)
	}})
}

func (c *coreIssuer) write(_, disk int, off, n int64, done func(bool)) error {
	return c.ingest.Write(disk, off, nil, n, func(err error) { done(err == nil) })
}

// pstream is one generated stream.
type pstream struct {
	id    int
	disk  int
	base  int64
	write bool
	phase time.Duration
	next  int64 // index of the stream's next request
}

// layoutPaced places the read streams evenly over the lower three
// quarters of each disk and the write streams in the top quarter, with
// seeded jitter in placement and in each stream's phase.
func layoutPaced(cfg pacedConfig, rng *rand.Rand) []*pstream {
	var out []*pstream
	readSpan := cfg.capacity / 4 * 3
	spacing := readSpan / int64(cfg.streamsPerDisk)
	spacing -= spacing % cfg.reqSize
	jitterSlots := spacing / cfg.reqSize / 8
	for d := 0; d < cfg.disks; d++ {
		for j := 0; j < cfg.streamsPerDisk; j++ {
			base := int64(j)*spacing + rng.Int63n(jitterSlots)*cfg.reqSize
			out = append(out, &pstream{disk: d, base: base})
		}
	}
	wspacing := (cfg.capacity - readSpan) / int64(cfg.writeStreams/cfg.disks+1)
	wspacing -= wspacing % cfg.reqSize
	for w := 0; w < cfg.writeStreams; w++ {
		out = append(out, &pstream{disk: w % cfg.disks, base: readSpan + int64(w/cfg.disks)*wspacing, write: true})
	}
	for i, s := range out {
		s.id = i
		s.phase = time.Duration(rng.Int63n(int64(cfg.period)))
	}
	return out
}

// tally counts operations. attempted and failed cover every operation
// the run issued, warm-up included.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// send issues one operation of s and advances the stream. An
// operation that cannot be issued counts as failed, and its done never
// runs.
func send(is issuer, s *pstream, size int64, tl *tally, done func(ok bool)) error {
	off := s.base + s.next*size
	s.next++
	tl.attempted.Add(1)
	var err error
	if s.write {
		err = is.write(s.id, s.disk, off, size, done)
	} else {
		err = is.read(s.id, s.disk, off, size, done)
	}
	if err != nil {
		tl.failed.Add(1)
	}
	return err
}

// warm drives every stream closed-loop for warmReqs requests, then
// keeps going one round at a time until the scheduler has classified
// every read stream and served each from staging at least once.
func warm(cfg pacedConfig, n *pacedNode, is issuer, streams []*pstream, tl *tally) error {
	round := func(reqs int) error {
		var wg sync.WaitGroup
		for _, s := range streams {
			s := s
			wg.Add(1)
			var step func(left int)
			step = func(left int) {
				if left == 0 {
					wg.Done()
					return
				}
				err := send(is, s, cfg.reqSize, tl, func(ok bool) {
					if !ok {
						tl.failed.Add(1)
					}
					step(left - 1)
				})
				if err != nil {
					wg.Done()
				}
			}
			step(reqs)
		}
		return waitTimeout(&wg, cfg.drain)
	}
	if err := round(cfg.warmReqs); err != nil {
		return err
	}
	for i := 0; i < 8; i++ {
		st := n.core.Stats()
		if st.StreamsDetected >= int64(cfg.readStreams()) && st.BufferHits >= int64(cfg.readStreams()) {
			return nil
		}
		if err := round(1); err != nil {
			return err
		}
	}
	return errors.New("paced: warm-up did not classify and stage every stream")
}

func waitTimeout(wg *sync.WaitGroup, d time.Duration) error {
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
		return nil
	case <-time.After(d):
		return fmt.Errorf("operations still outstanding after %v", d)
	}
}

// pacedLeg is the outcome of one measured leg. The window is cut into
// slots; latency samples go to the slot their request was due in,
// operations and CPU to the slot they completed in.
type pacedLeg struct {
	window    time.Duration
	readBytes int64 // read bytes completed inside the window
	ops       int64 // operations completed inside the window
	slots     []*slot
	liveHeap  float64 // after the window and the drain
	lag       dist    // generator lateness at issue
	ticks     dist    // health.Engine.Tick durations (traced legs)

	st0, st1     core.Stats
	pool0, pool1 bufpool.Stats
	ing0, ing1   core.IngestStats
	seen0, seen1 uint64 // flight events consumed+lost by the health engine
	lost0, lost1 uint64
}

type slot struct {
	ops      atomic.Int64
	cpu      time.Duration
	readLat  dist // from due time to checked completion
	writeLat dist
}

// measurePaced runs the open loop for the given window: each stream
// issues one request per period at its phase, from a single generator
// goroutine, and every request is timed from when it was due.
func measurePaced(cfg pacedConfig, n *pacedNode, is issuer, streams []*pstream, window time.Duration, traced bool, tl *tally) (*pacedLeg, error) {
	leg := &pacedLeg{window: window}
	slotLen := min(cfg.slot, window)
	for i := time.Duration(0); i < window/slotLen; i++ {
		leg.slots = append(leg.slots, &slot{})
	}
	slotOf := func(t time.Duration) *slot {
		i := int(t / slotLen)
		if i < 0 || i >= len(leg.slots) {
			return nil
		}
		return leg.slots[i]
	}
	order := append([]*pstream(nil), streams...)
	sort.SliceStable(order, func(i, j int) bool { return order[i].phase < order[j].phase })

	base := time.Now()
	now := func() time.Duration { return time.Since(base) }
	t0 := now() + 2*time.Millisecond
	end := t0 + slotLen*time.Duration(len(leg.slots))

	report := func() (uint64, uint64) {
		r := n.health.Report()
		return r.EventsSeen + r.EventsLost, r.EventsLost
	}
	leg.st0, leg.pool0, leg.ing0 = n.core.Stats(), n.core.Pool().Stats(), n.ingest.Stats()
	leg.seen0, leg.lost0 = report()

	// One goroutine ticks the health engine; another reads the process
	// CPU time at every slot boundary.
	var bg sync.WaitGroup
	stop := make(chan struct{})
	bg.Add(2)
	go func() {
		defer bg.Done()
		tk := time.NewTicker(cfg.healthEvery)
		defer tk.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tk.C:
			}
			start := time.Now()
			n.health.Tick()
			if traced {
				leg.ticks.add(time.Since(start))
			}
		}
	}()
	go func() {
		defer bg.Done()
		last := time.Duration(0)
		for i := 0; i <= len(leg.slots); i++ {
			if w := t0 + slotLen*time.Duration(i) - now(); w > 0 {
				time.Sleep(w)
			}
			c := cpuTime()
			if i > 0 {
				leg.slots[i-1].cpu = c - last
			}
			last = c
		}
	}()

	var outstanding sync.WaitGroup
	var readBytes, ops atomic.Int64
	complete := func(s *pstream, due time.Duration) func(bool) {
		return func(ok bool) {
			defer outstanding.Done()
			t := now()
			if !ok {
				tl.failed.Add(1)
				return
			}
			if t <= end {
				ops.Add(1)
				if sl := slotOf(t - t0); sl != nil {
					sl.ops.Add(1)
				}
				if !s.write {
					readBytes.Add(cfg.reqSize)
				}
			}
			if sl := slotOf(due - t0); sl != nil {
				if s.write {
					sl.writeLat.add(t - due)
				} else {
					sl.readLat.add(t - due)
				}
			}
		}
	}

	if cfg.refuse {
		outstanding.Add(1)
		if send(is, &pstream{id: len(streams), base: cfg.capacity}, cfg.reqSize, tl, complete(&pstream{}, t0)) != nil {
			outstanding.Done()
		}
	}
	for k := int64(0); ; k++ {
		done := false
		for _, s := range order {
			due := t0 + s.phase + time.Duration(k)*cfg.period
			if due >= end {
				done = true
				break
			}
			if w := due - now(); w > 0 {
				time.Sleep(w)
			}
			leg.lag.add(now() - due)
			outstanding.Add(1)
			if send(is, s, cfg.reqSize, tl, complete(s, due)) != nil {
				outstanding.Done()
			}
		}
		if done {
			break
		}
	}
	if w := end - now(); w > 0 {
		time.Sleep(w)
	}
	close(stop)
	bg.Wait()
	leg.st1, leg.pool1, leg.ing1 = n.core.Stats(), n.core.Pool().Stats(), n.ingest.Stats()
	leg.seen1, leg.lost1 = report()

	if err := waitTimeout(&outstanding, cfg.drain); err != nil {
		if len(n.conns) == 0 {
			return nil, fmt.Errorf("paced: %w", err)
		}
		// Closing the connections fails every pending request, which
		// counts it as failed and releases the wait.
		for _, c := range n.conns {
			c.Close()
		}
		outstanding.Wait()
	}
	leg.readBytes, leg.ops = readBytes.Load(), ops.Load()
	leg.liveHeap = liveHeapMB()
	return leg, nil
}
