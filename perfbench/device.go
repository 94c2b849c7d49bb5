package main

import (
	"sync"
	"sync/atomic"
	"time"

	"seqstream/internal/blockdev"
)

// patternPeriod is the period of blockdev.Pattern in the offset.
const patternPeriod = 251

// patternTable holds blockdev.Pattern precomputed, so the device
// stand-in fills a read with one copy and the client checks a payload
// with one bytes.Equal. A per-byte Pattern call costs ~2.8 ms per MiB
// and would dominate the process's CPU.
type patternTable struct {
	b   []byte
	max int64
}

func newPatternTable(maxLen int64) *patternTable {
	b := make([]byte, patternPeriod+maxLen)
	for i := range b {
		b[i] = byte(i % patternPeriod)
	}
	return &patternTable{b: b, max: maxLen}
}

// at returns the pattern bytes of [off, off+n) on disk, aliasing the
// table (callers must not write through it). n must not exceed the
// table's max length.
func (t *patternTable) at(disk int, off, n int64) []byte {
	s := (off + int64(disk)*131) % patternPeriod
	return t.b[s : s+n]
}

// tableDevice is the paced workload's device stand-in: reads complete
// synchronously with blockdev.Pattern bytes copied from the table, and
// writes are acknowledged and discarded.
type tableDevice struct {
	disks    int
	capacity int64
	tab      *patternTable

	reads atomic.Int64
	// corruptRead, when positive, flips one byte of that (1-based)
	// device read, so a test can prove the client-side check fires.
	corruptRead int64
}

var (
	_ blockdev.Device     = (*tableDevice)(nil)
	_ blockdev.ReaderInto = (*tableDevice)(nil)
	_ blockdev.Writer     = (*tableDevice)(nil)
)

func (d *tableDevice) Disks() int         { return d.disks }
func (d *tableDevice) Capacity(int) int64 { return d.capacity }
func (d *tableDevice) check(disk int, off, n int64) error {
	if err := blockdev.CheckRequest(d, disk, off, n); err != nil {
		return err
	}
	if n > d.tab.max {
		return blockdev.ErrBadRequest
	}
	return nil
}

func (d *tableDevice) ReadAt(disk int, off, n int64, done func([]byte, error)) error {
	if err := d.check(disk, off, n); err != nil {
		return err
	}
	return d.ReadInto(disk, off, n, make([]byte, n), done)
}

func (d *tableDevice) ReadInto(disk int, off, n int64, buf []byte, done func([]byte, error)) error {
	if err := d.check(disk, off, n); err != nil {
		return err
	}
	if int64(len(buf)) != n {
		return blockdev.ErrBadRequest
	}
	copy(buf, d.tab.at(disk, off, n))
	if k := d.reads.Add(1); k == d.corruptRead {
		buf[n/2] ^= 0xff
	}
	if done != nil {
		done(buf, nil)
	}
	return nil
}

func (d *tableDevice) WriteAt(disk int, off, n int64, _ []byte, done func(error)) error {
	if err := blockdev.CheckRequest(d, disk, off, n); err != nil {
		return err
	}
	if done != nil {
		done(nil)
	}
	return nil
}

// timedDevice is the traced runs' view of the device layer: it times
// every read from issue to completion on the scheduler's clock and
// integrates the number of reads in flight over time. It forwards
// every optional interface of the device it wraps (see wrapTimed), so
// the scheduler takes the same code paths as without it.
type timedDevice struct {
	inner blockdev.Device
	now   func() time.Duration

	mu       sync.Mutex
	lat      *dist
	inflight int64
	area     float64       // ∫ inflight dt, in reads × ns
	first    time.Duration // start of the window (see reset)
	last     time.Duration
	reads    int64
}

// timedSimDevice adds the simulated host's cost-model interfaces.
type timedSimDevice struct {
	*timedDevice
	acct blockdev.BufferAccounting
	cpu  blockdev.CPUAccounting
}

func (d *timedSimDevice) SetLiveBuffers(n int)               { d.acct.SetLiveBuffers(n) }
func (d *timedSimDevice) ChargeRequest(n int64, done func()) { d.cpu.ChargeRequest(n, done) }

var (
	_ blockdev.ReaderInto        = (*timedDevice)(nil)
	_ blockdev.ReadIntoSupported = (*timedDevice)(nil)
	_ blockdev.Writer            = (*timedDevice)(nil)
	_ blockdev.BufferAccounting  = (*timedSimDevice)(nil)
	_ blockdev.CPUAccounting     = (*timedSimDevice)(nil)
)

// wrapTimed wraps inner in a timing layer and returns both the device
// to hand the scheduler and the timing state to read afterwards. The
// cost-model interfaces are forwarded only when inner has both, and
// ReadInto is gated on inner's own support, exactly as the scheduler
// would see inner.
func wrapTimed(inner blockdev.Device, now func() time.Duration) (blockdev.Device, *timedDevice) {
	t := &timedDevice{inner: inner, now: now, lat: &dist{}}
	acct, ok1 := inner.(blockdev.BufferAccounting)
	cpu, ok2 := inner.(blockdev.CPUAccounting)
	if ok1 && ok2 {
		return &timedSimDevice{timedDevice: t, acct: acct, cpu: cpu}, t
	}
	return t, t
}

func (t *timedDevice) Disks() int              { return t.inner.Disks() }
func (t *timedDevice) Capacity(disk int) int64 { return t.inner.Capacity(disk) }

// advance accumulates the in-flight area up to now. Caller holds mu.
func (t *timedDevice) advance(now time.Duration) {
	t.area += float64(t.inflight) * float64(now-t.last)
	t.last = now
}

func (t *timedDevice) begin() time.Duration {
	now := t.now()
	t.mu.Lock()
	t.advance(now)
	t.inflight++
	t.reads++
	t.mu.Unlock()
	return now
}

func (t *timedDevice) end(start time.Duration, counted bool) {
	now := t.now()
	t.mu.Lock()
	t.advance(now)
	t.inflight--
	if !counted {
		t.reads--
	}
	lat := t.lat
	t.mu.Unlock()
	if counted {
		lat.add(now - start)
	}
}

// reset starts the measurement window: reads, latencies and the
// in-flight integral count from now.
func (t *timedDevice) reset() {
	now := t.now()
	t.mu.Lock()
	t.lat = &dist{}
	t.reads = 0
	t.area = 0
	t.first, t.last = now, now
	t.mu.Unlock()
}

// timedRead runs issue with a completion that records the read's time.
func (t *timedDevice) timedRead(issue func(done func([]byte, error)) error, done func([]byte, error)) error {
	start := t.begin()
	err := issue(func(data []byte, err error) {
		t.end(start, true)
		if done != nil {
			done(data, err)
		}
	})
	if err != nil {
		// A device reports a malformed read by its return value and
		// never completes it.
		t.end(start, false)
	}
	return err
}

func (t *timedDevice) ReadAt(disk int, off, n int64, done func([]byte, error)) error {
	return t.timedRead(func(cb func([]byte, error)) error {
		return t.inner.ReadAt(disk, off, n, cb)
	}, done)
}

func (t *timedDevice) ReadInto(disk int, off, n int64, buf []byte, done func([]byte, error)) error {
	ri, ok := t.inner.(blockdev.ReaderInto)
	if !ok {
		return blockdev.ErrBadRequest
	}
	return t.timedRead(func(cb func([]byte, error)) error {
		return ri.ReadInto(disk, off, n, buf, cb)
	}, done)
}

// SupportsReadInto reports whether the wrapped device has a pooled
// read path of its own (recursing through its gate, if any).
func (t *timedDevice) SupportsReadInto() bool {
	if _, ok := t.inner.(blockdev.ReaderInto); !ok {
		return false
	}
	if g, ok := t.inner.(blockdev.ReadIntoSupported); ok {
		return g.SupportsReadInto()
	}
	return true
}

func (t *timedDevice) WriteAt(disk int, off, n int64, data []byte, done func(error)) error {
	w, ok := t.inner.(blockdev.Writer)
	if !ok {
		return blockdev.ErrReadOnly
	}
	return w.WriteAt(disk, off, n, data, done)
}

// devStats is the device layer's traced summary.
type devStats struct {
	reads        int64
	inflightMean float64
	lat          *dist
}

func (t *timedDevice) stats() devStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	mean := 0.0
	if span := t.last - t.first; span > 0 {
		mean = t.area / float64(span)
	}
	return devStats{reads: t.reads, inflightMean: mean, lat: t.lat}
}
