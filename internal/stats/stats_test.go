package stats

import (
	"strings"
	"sync"
	"testing"
)

func TestSnapshot(t *testing.T) {
	var c Counters
	c.RemoteRPCs.Add(3)
	c.LocalRPCs.Add(2)
	c.CycleLookups.Add(7)
	c.AllocBytes.Add(1 << 20)
	c.ReusedObjs.Add(5)
	s := c.Snapshot()
	if s.RemoteRPCs != 3 || s.LocalRPCs != 2 || s.CycleLookups != 7 || s.ReusedObjs != 5 {
		t.Fatalf("snapshot: %+v", s)
	}
	if s.NewMBytes() != 1.0 {
		t.Fatalf("NewMBytes = %g", s.NewMBytes())
	}
}

func TestSub(t *testing.T) {
	var c Counters
	c.Messages.Add(10)
	before := c.Snapshot()
	c.Messages.Add(5)
	c.WireBytes.Add(100)
	d := c.Snapshot().Sub(before)
	if d.Messages != 5 || d.WireBytes != 100 {
		t.Fatalf("delta: %+v", d)
	}
}

func TestConcurrentCounting(t *testing.T) {
	var c Counters
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.SerializerCalls.Add(1)
				c.InlinedWrites.Add(2)
			}
		}()
	}
	wg.Wait()
	s := c.Snapshot()
	if s.SerializerCalls != 8000 || s.InlinedWrites != 16000 {
		t.Fatalf("lost updates: %+v", s)
	}
}

func TestStringRendering(t *testing.T) {
	var c Counters
	c.RemoteRPCs.Add(1)
	c.AllocObjects.Add(2)
	out := c.Snapshot().String()
	for _, frag := range []string{"remote=1", "2 objs", "reused=0"} {
		if !strings.Contains(out, frag) {
			t.Fatalf("String() missing %q: %s", frag, out)
		}
	}
}

func TestRecoveryCountersRoundTrip(t *testing.T) {
	var c Counters
	c.Retries.Add(4)
	c.Timeouts.Add(1)
	c.DupSuppressed.Add(3)
	c.CorruptDropped.Add(2)
	c.StaleReplies.Add(5)
	before := c.Snapshot()
	if before.Retries != 4 || before.Timeouts != 1 || before.DupSuppressed != 3 ||
		before.CorruptDropped != 2 || before.StaleReplies != 5 {
		t.Fatalf("snapshot lost recovery counters: %+v", before)
	}
	c.Retries.Add(6)
	c.CorruptDropped.Add(1)
	d := c.Snapshot().Sub(before)
	if d.Retries != 6 || d.CorruptDropped != 1 || d.Timeouts != 0 {
		t.Fatalf("delta: %+v", d)
	}
}
