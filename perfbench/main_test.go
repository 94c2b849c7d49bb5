package main

import (
	"bytes"
	"testing"
	"time"

	"seqstream/internal/blockdev"
	"seqstream/internal/core"
	"seqstream/internal/iostack"
	"seqstream/internal/sim"
)

func TestPatternTableMatchesPattern(t *testing.T) {
	tab := newPatternTable(4096)
	for _, disk := range []int{0, 1, 7} {
		for _, off := range []int64{0, 1, 250, 251, 65536, 1<<33 + 17} {
			got := tab.at(disk, off, 4096)
			for i, b := range got {
				if want := blockdev.Pattern(disk, off+int64(i)); b != want {
					t.Fatalf("disk %d offset %d byte %d: got %#x, want %#x", disk, off, i, b, want)
				}
			}
		}
	}
}

// The timing wrapper must hand the scheduler the same optional
// interfaces the wrapped device has, or a traced run would take other
// code paths than an untraced one.
func TestTimedDeviceForwardsInterfaces(t *testing.T) {
	tab := &tableDevice{disks: 2, capacity: 1 << 30, tab: newPatternTable(1 << 20)}
	wrapped, _ := wrapTimed(tab, blockdev.NewRealClock().Now)
	if g, ok := wrapped.(blockdev.ReadIntoSupported); !ok || !g.SupportsReadInto() {
		t.Fatal("wrapped table device does not offer ReadInto")
	}
	if _, ok := wrapped.(blockdev.Writer); !ok {
		t.Fatal("wrapped table device does not offer writes")
	}
	if _, ok := wrapped.(blockdev.CPUAccounting); ok {
		t.Fatal("wrapped table device claims a CPU cost model it does not have")
	}
	srv, err := core.NewServer(wrapped, blockdev.NewRealClock(), core.DefaultConfig(8<<20, 1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Pool() == nil {
		t.Fatal("scheduler did not take the pooled read path through the wrapper")
	}

	eng := sim.NewEngine()
	host, err := iostack.New(eng, iostack.Testbed8Config(iostack.Options{}))
	if err != nil {
		t.Fatal(err)
	}
	simDev, err := blockdev.NewSimDevice(host)
	if err != nil {
		t.Fatal(err)
	}
	script, err := blockdev.NewScriptDevice(simDev, blockdev.NewSimClock(eng), nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, inner := range []blockdev.Device{simDev, script} {
		wrapped, _ := wrapTimed(inner, blockdev.NewSimClock(eng).Now)
		if _, ok := wrapped.(blockdev.BufferAccounting); !ok {
			t.Errorf("%T: buffer accounting not forwarded", inner)
		}
		if _, ok := wrapped.(blockdev.CPUAccounting); !ok {
			t.Errorf("%T: CPU accounting not forwarded", inner)
		}
		if g, ok := wrapped.(blockdev.ReadIntoSupported); !ok || g.SupportsReadInto() {
			t.Errorf("%T: wrapper offers ReadInto the simulator cannot serve", inner)
		}
	}
}

func TestTimedDeviceTimesReads(t *testing.T) {
	tab := &tableDevice{disks: 1, capacity: 1 << 20, tab: newPatternTable(4096)}
	now := time.Duration(0)
	dev, timed := wrapTimed(tab, func() time.Duration { now += time.Millisecond; return now })
	timed.reset()
	buf := make([]byte, 4096)
	err := dev.(blockdev.ReaderInto).ReadInto(0, 8192, 4096, buf, func(data []byte, err error) {
		if err != nil || !bytes.Equal(data, tab.tab.at(0, 8192, 4096)) {
			t.Errorf("read returned %v and wrong bytes", err)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := dev.ReadAt(0, 1<<20, 4096, nil); err == nil {
		t.Fatal("read past the end was accepted")
	}
	st := timed.stats()
	if st.reads != 1 || st.lat.n() != 1 {
		t.Fatalf("counted %d reads and %d latencies, want 1 and 1", st.reads, st.lat.n())
	}
}

// smallPaced is a paced configuration that runs in about a second.
func smallPaced() pacedConfig {
	cfg := defaultPaced()
	cfg.disks = 2
	cfg.streamsPerDisk = 4
	cfg.writeStreams = 2
	cfg.capacity = 1 << 30
	cfg.period = 5 * time.Millisecond
	cfg.setups = 1
	cfg.drain = 5 * time.Second
	return cfg
}

func runSmallPaced(t *testing.T, cfg pacedConfig) *result {
	t.Helper()
	res, err := runPaced(cfg, 1, time.Second, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.attempted == 0 {
		t.Fatal("no operation attempted")
	}
	return res
}

func TestPacedCleanRunPasses(t *testing.T) {
	res := runSmallPaced(t, smallPaced())
	if res.failed != 0 || len(res.problems) != 0 {
		t.Fatalf("clean run failed %d of %d operations: %v", res.failed, res.attempted, res.problems)
	}
}

func TestPacedFlippedByteFailsRun(t *testing.T) {
	cfg := smallPaced()
	// Well past the warm-up's reads, so the flip lands in the window.
	cfg.corruptRead = 400
	if res := runSmallPaced(t, cfg); res.failed == 0 {
		t.Fatalf("a flipped payload byte went unnoticed in %d operations", res.attempted)
	}
}

func TestPacedRefusedRequestFailsRun(t *testing.T) {
	cfg := smallPaced()
	cfg.refuse = true
	if res := runSmallPaced(t, cfg); res.failed != 1 {
		t.Fatalf("failed = %d, want exactly the refused request", res.failed)
	}
}

// A traced rep and repeated untraced reps of a small simulated
// workload must give identical virtual-time results.
func TestSimRepsAreDeterministic(t *testing.T) {
	cfg := stragglerConfig()
	cfg.warmup, cfg.measure = 2*time.Second, 3*time.Second
	res, err := runSim(cfg, 3, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.problems) != 0 || res.failed != 0 {
		t.Fatalf("problems %v, %d failed", res.problems, res.failed)
	}
	if res.pcts.n["reps.traced"] == 0 {
		t.Fatal("no traced rep ran")
	}
}
