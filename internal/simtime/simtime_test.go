package simtime

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestClockAdvanceAndSync(t *testing.T) {
	var c Clock
	if c.Now() != 0 {
		t.Fatal("fresh clock not zero")
	}
	c.Advance(100)
	c.Sync(50) // must not move backwards
	if c.Now() != 100 {
		t.Fatalf("Sync moved clock backwards: %d", c.Now())
	}
	c.Sync(250)
	if c.Now() != 250 {
		t.Fatalf("Sync failed: %d", c.Now())
	}
}

func TestClockConcurrentAdvance(t *testing.T) {
	var c Clock
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(1)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8000 {
		t.Fatalf("lost advances: %d", c.Now())
	}
}

func TestCostModelMonotone(t *testing.T) {
	m := DefaultCostModel()
	// More work must never be cheaper.
	f := func(a, b uint16) bool {
		o1 := OpCount{SerializerCalls: int64(a), CycleLookups: int64(b)}
		o2 := o1
		o2.Allocs = 10
		return m.CostNS(o2) >= m.CostNS(o1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCostModelComposition(t *testing.T) {
	m := DefaultCostModel()
	a := OpCount{SerializerCalls: 3, TypeOps: 2, InlinedWrites: 7, Elems: 100}
	b := OpCount{CycleTables: 1, CycleLookups: 10, Allocs: 5, IntrospectOps: 4}
	sum := a
	sum.Add(b)
	if m.CostNS(sum) != m.CostNS(a)+m.CostNS(b) {
		t.Fatal("cost is not additive")
	}
}

func TestMessageNS(t *testing.T) {
	m := DefaultCostModel()
	if m.MessageNS(0) != m.NetLatencyNS {
		t.Fatal("zero-byte message should cost pure latency")
	}
	if m.MessageNS(1000) != m.NetLatencyNS+1000*m.NetPerByteNS {
		t.Fatal("per-byte cost wrong")
	}
}

func TestDefaultCalibrationRoundTrip(t *testing.T) {
	// The paper says a single optimized RMI costs about 40 µs: two
	// messages (call + ack) with dispatch overhead should land in the
	// 30-60 µs window for a tiny payload.
	m := DefaultCostModel()
	rt := 2*m.MessageNS(32) + 2*m.DispatchNS
	if rt < 30000 || rt > 60000 {
		t.Fatalf("calibrated small-RMI round trip = %d ns, want ~40 µs", rt)
	}
	// Allocation is ~0.1 µs per the paper plus amortized GC and cache
	// effects (calibrated against the reuse gains of Tables 1-3).
	if m.AllocNS != 600 {
		t.Fatalf("AllocNS = %d, want 600", m.AllocNS)
	}
}

func TestSecondsConversion(t *testing.T) {
	if Seconds(2_500_000_000) != 2.5 {
		t.Fatal("Seconds conversion")
	}
}
