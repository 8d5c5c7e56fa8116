package serial

import (
	"math/rand"
	"sync"
	"testing"

	"cormi/internal/model"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// checkAgainstOracle replays a stream of lookupOrAdd calls against a Go
// map and compares every answer.
func checkAgainstOracle(t *testing.T, tab *ptrTable, stream []*model.Object) {
	t.Helper()
	oracle := map[*model.Object]int32{}
	for i, o := range stream {
		v := int32(i)
		want, seen := oracle[o]
		if !seen {
			oracle[o], want = v, v
		}
		got, found := tab.lookupOrAdd(o, v)
		if got != want || found != seen {
			t.Fatalf("step %d: lookupOrAdd = (%d, %v), oracle (%d, %v)", i, got, found, want, seen)
		}
		if tab.n != len(oracle) {
			t.Fatalf("step %d: table holds %d keys, oracle %d", i, tab.n, len(oracle))
		}
		if 2*tab.n > len(tab.slots) || len(tab.slots)&(len(tab.slots)-1) != 0 {
			t.Fatalf("step %d: %d keys in %d slots", i, tab.n, len(tab.slots))
		}
	}
}

func TestPtrTableMatchesMapOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	pool := make([]model.Object, 5000)
	for round := 0; round < 50; round++ {
		var tab ptrTable
		distinct := 1 + rng.Intn(len(pool))
		if round%2 == 0 {
			distinct = 1 + rng.Intn(100) // mostly re-lookups
		}
		stream := make([]*model.Object, 2*distinct)
		for i := range stream {
			stream[i] = &pool[rng.Intn(distinct)]
		}
		checkAgainstOracle(t, &tab, stream)
		if distinct > ptrTableMinSlots && len(tab.slots) == ptrTableMinSlots && tab.n > ptrTableMinSlots/2 {
			t.Fatal("table never grew")
		}
	}
}

// TestPtrTableForcedCollisions feeds the table keys that all hash to
// the same slot of the initial table, so every insert probes through
// its predecessors and growth has to re-spread a single cluster.
func TestPtrTableForcedCollisions(t *testing.T) {
	const shift = 64 - 6 // ptrTableMinSlots == 1<<6
	if ptrTableMinSlots != 1<<6 {
		t.Fatal("update the shift: the initial table size changed")
	}
	pool := make([]model.Object, 1<<14)
	var colliding []*model.Object
	home := ptrHash(&pool[0]) >> shift
	for i := range pool {
		if ptrHash(&pool[i])>>shift == home {
			colliding = append(colliding, &pool[i])
		}
	}
	if len(colliding) < 100 {
		t.Fatalf("only %d colliding keys in the pool", len(colliding))
	}
	var tab ptrTable
	stream := append(append([]*model.Object(nil), colliding...), colliding...)
	checkAgainstOracle(t, &tab, stream)
}

func TestPtrTableReleaseEmptiesAndShrinks(t *testing.T) {
	pool := make([]model.Object, 50000)
	var tab ptrTable
	fill := func(n int) {
		for i := 0; i < n; i++ {
			tab.lookupOrAdd(&pool[i], int32(i))
		}
	}
	assertEmpty := func(when string) {
		t.Helper()
		if tab.n != 0 {
			t.Fatalf("%s: n = %d", when, tab.n)
		}
		for i := range tab.slots {
			if tab.slots[i].key != nil {
				t.Fatalf("%s: slot %d still pins an object", when, i)
			}
		}
	}

	fill(100)
	small := len(tab.slots)
	tab.release()
	assertEmpty("after a small message")
	if len(tab.slots) != small {
		t.Fatalf("small table not kept: %d -> %d slots", small, len(tab.slots))
	}
	// A released table answers like a fresh one.
	if _, found := tab.lookupOrAdd(&pool[3], 0); found {
		t.Fatal("released table remembers a key")
	}
	tab.release()

	// One huge message: the table is cleared and kept (it was full
	// enough to be worth clearing) ...
	fill(len(pool))
	huge := len(tab.slots)
	tab.release()
	assertEmpty("after the huge message")
	if len(tab.slots) != huge {
		t.Fatalf("table dropped right after a message that filled it: %d -> %d", huge, len(tab.slots))
	}
	// ... and dropped by the first small message that finds it mostly
	// empty, after which small messages run in a small table again.
	fill(100)
	tab.release()
	if len(tab.slots) != 0 {
		t.Fatalf("mostly empty %d-slot table survived a 100-object message", len(tab.slots))
	}
	fill(100)
	if len(tab.slots) != small {
		t.Fatalf("after the shrink: %d slots, want %d", len(tab.slots), small)
	}
	tab.release()
	assertEmpty("after the shrink")

	// Tables up to ptrTableKeepSlots are never dropped, however empty.
	fill(ptrTableKeepSlots/2 - 1)
	tab.release()
	fill(1)
	tab.release()
	if len(tab.slots) != ptrTableKeepSlots {
		t.Fatalf("%d-slot table dropped", ptrTableKeepSlots)
	}
}

func TestPtrTableSteadyStateAllocs(t *testing.T) {
	pool := make([]model.Object, 300)
	var tab ptrTable
	message := func() {
		for i := range pool {
			tab.lookupOrAdd(&pool[i], int32(i))
		}
		for i := range pool {
			if h, found := tab.lookupOrAdd(&pool[i], -1); !found || h != int32(i) {
				panic("lost a key")
			}
		}
		tab.release()
	}
	message() // grow once
	if n := testing.AllocsPerRun(100, message); n != 0 {
		t.Fatalf("steady-state message allocates %.1f times", n)
	}
}

// TestConcurrentWritersShareAGraph: the identity table is per pooled
// context and nothing is stamped on model.Object, so any number of
// writers may serialize the same graph at once (run under -race) and
// every one of them gets the single-writer frame.
func TestConcurrentWritersShareAGraph(t *testing.T) {
	w := newWorld()
	head := w.makeList(200)
	tail := head
	for tail.GetRef("next") != nil {
		tail = tail.GetRef("next")
	}
	tail.Set("next", model.Ref(head)) // a ring: every writer needs its table
	plans := []*Plan{w.nodeListPlan(true)}
	cfg := Config{Mode: ModeSite, Reuse: true, CycleElim: true}
	vals := []model.Value{model.Ref(head)}

	var c stats.Counters
	want := wire.NewMessage(0)
	if _, err := WriteValues(want, vals, plans, cfg, &c); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := wire.NewMessage(0)
			for i := 0; i < 200; i++ {
				m.Reset()
				if _, err := WriteValues(m, vals, plans, cfg, &c); err != nil {
					t.Error(err)
					return
				}
				if string(m.Bytes()) != string(want.Bytes()) {
					t.Error("concurrent writer produced a different frame")
					return
				}
				got, _, _, err := ReadValuesScratch(wire.FromBytes(m.Bytes()), w.reg, 1, plans, cfg, nil, nil, &c)
				if err != nil || !model.DeepEqual(head, got[0].O) {
					t.Errorf("concurrent round trip: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := c.Snapshot().CycleLookups; got != (1+8*200)*201 {
		t.Fatalf("CycleLookups = %d, want %d", got, (1+8*200)*201)
	}
}
