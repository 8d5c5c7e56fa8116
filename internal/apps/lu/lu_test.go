package lu

import (
	"errors"
	"runtime"
	"testing"
	"time"

	"cormi/internal/balance"
	"cormi/internal/core"
	"cormi/internal/rmi"
	"cormi/internal/testkit"
	"cormi/internal/transport"
)

func TestSequentialBlockMathAgreesWithScalarLU(t *testing.T) {
	// Factor a small matrix with the block routines (one node path)
	// and with plain scalar LU; both must produce the same residual
	// behavior.
	const n = 32
	a := make([][]float64, n)
	for i := range a {
		a[i] = make([]float64, n)
		for j := range a[i] {
			a[i][j] = synth(i, j)
			if i == j {
				a[i][j] += n
			}
		}
	}
	luM := make([][]float64, n)
	for i := range luM {
		luM[i] = append([]float64(nil), a[i]...)
	}
	factorDiag(luM) // whole matrix as one block
	if r := residual(a, luM, n); r > 1e-9 {
		t.Fatalf("scalar LU residual %g", r)
	}
}

func TestCompiledSketchVerdicts(t *testing.T) {
	res, err := core.Compile(Src)
	if err != nil {
		t.Fatal(err)
	}
	get := res.SiteByName("Driver.interior.1")
	if get == nil {
		t.Fatal("no interior fetch site")
	}
	if get.RetMayCycle {
		t.Fatal("block graph misflagged cyclic")
	}
	if !get.RetReusable {
		t.Fatal("fetched block should be reusable")
	}
	if get.IgnoreRet {
		t.Fatal("fetch return is used")
	}
	flush := res.SiteByName("Driver.main.3")
	if flush == nil {
		t.Fatal("no flush site")
	}
	if !flush.IgnoreRet {
		t.Fatal("flush should be ack-only")
	}
	if !flush.ArgReusable[1] {
		t.Fatal("flushed block is copied element-wise and should be reusable")
	}
	if flush.MayCycle {
		t.Fatal("flush argument misflagged cyclic")
	}
	// Every site is a leaf: no BlockStore method and no Barrier.await
	// reaches a remote call. The barrier's body blocks all the same;
	// its service keeps it off the receive loop
	// (TestLUCorrectAtAllLevelsOverTCP, rmi's barrier test).
	for _, si := range res.Sites {
		if !si.Leaf {
			t.Errorf("%s: not a leaf", si.Name)
		}
	}
}

func TestLUCorrectAtAllLevels(t *testing.T) {
	for _, level := range rmi.AllLevels {
		out, err := Run(level, 64, 16, 2)
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if out.MaxResidual > 1e-8 {
			t.Fatalf("%v: residual %g", level, out.MaxResidual)
		}
		if out.Stats.RemoteRPCs == 0 || out.Stats.LocalRPCs == 0 {
			t.Fatalf("%v: rpc mix %d/%d", level, out.Stats.LocalRPCs, out.Stats.RemoteRPCs)
		}
	}
}

// TestLUCorrectAtAllLevelsOverTCP is TestLUCorrectAtAllLevels over
// loopback TCP: fetches and flushes run as upcalls on the receive
// loops, barrier calls on executors, at every level.
func TestLUCorrectAtAllLevelsOverTCP(t *testing.T) {
	for _, level := range rmi.AllLevels {
		nw, err := transport.NewTCPNetworkLocal(2)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(level, 64, 16, 2, rmi.WithNetwork(nw))
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		if out.MaxResidual > 1e-8 {
			t.Fatalf("%v: residual %g", level, out.MaxResidual)
		}
		if out.Stats.RemoteRPCs == 0 {
			t.Fatalf("%v: no remote calls", level)
		}
	}
}

func TestLUTable3Shape(t *testing.T) {
	secs := map[rmi.OptLevel]float64{}
	var stats = map[rmi.OptLevel]int64{}
	alloc := map[rmi.OptLevel]int64{}
	for _, level := range rmi.AllLevels {
		out, err := Run(level, 96, 16, 2)
		if err != nil {
			t.Fatalf("%v: %v", level, err)
		}
		secs[level] = out.Seconds
		stats[level] = out.Stats.CycleLookups
		alloc[level] = out.Stats.AllocBytes
	}
	// Table 3 shape: every optimization row beats class; all-on wins.
	for _, level := range rmi.AllLevels[1:] {
		if !(secs[level] < secs[rmi.LevelClass]) {
			t.Fatalf("%v (%.4fs) not faster than class (%.4fs)", level, secs[level], secs[rmi.LevelClass])
		}
	}
	if !(secs[rmi.LevelSiteReuseCycle] < secs[rmi.LevelSite]) {
		t.Fatal("all optimizations should beat site alone")
	}
	// Table 4 shape: cycle elimination removes (essentially) all
	// lookups; reuse slashes deserialization allocation.
	if stats[rmi.LevelSiteCycle] != 0 || stats[rmi.LevelSiteReuseCycle] != 0 {
		t.Fatalf("cycle lookups with elimination: %d / %d",
			stats[rmi.LevelSiteCycle], stats[rmi.LevelSiteReuseCycle])
	}
	if stats[rmi.LevelClass] == 0 || stats[rmi.LevelSite] == 0 {
		t.Fatal("baseline rows should pay cycle lookups")
	}
	if !(alloc[rmi.LevelSiteReuse] < alloc[rmi.LevelSite]/2) {
		t.Fatalf("reuse should at least halve deserialization bytes: %d vs %d",
			alloc[rmi.LevelSiteReuse], alloc[rmi.LevelSite])
	}
}

func TestLUFourNodes(t *testing.T) {
	out, err := Run(rmi.LevelSiteReuseCycle, 64, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	if out.MaxResidual > 1e-8 {
		t.Fatalf("residual %g", out.MaxResidual)
	}
}

func TestBadBlockSize(t *testing.T) {
	if _, err := Run(rmi.LevelClass, 50, 16, 2); err == nil {
		t.Fatal("n not divisible by bs accepted")
	}
}

// TestLUTotalLossTerminates: under a link that delivers nothing, the
// run must fail with ErrTimeout in bounded time — the early worker
// waiting in the barrier is unblocked by the fail-fast cluster close,
// not left waiting forever for a party that already gave up.
func TestLUTotalLossTerminates(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		_, err := Run(rmi.LevelSite, 64, 16, 2,
			rmi.WithFaults(transport.FaultConfig{
				Seed:       11,
				FaultRates: transport.FaultRates{Drop: 1},
			}),
			rmi.WithCallPolicy(rmi.CallPolicy{
				Timeout: 10 * time.Millisecond, Retries: 2, Backoff: time.Millisecond,
			}))
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, rmi.ErrTimeout) {
			t.Fatalf("err = %v, want ErrTimeout", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("LU hung under total packet loss")
	}
}

// TestLUOverTCPLeavesPoolsBalanced: a whole run over loopback TCP,
// cluster bring-up and teardown included, returns every frame buffer
// and read context it took. It used to strand a handful of buffers per
// run on wire.Message structs released with their buffer attached.
func TestLUOverTCPLeavesPoolsBalanced(t *testing.T) {
	mark := balance.Take()
	for run := 0; run < 3; run++ {
		nw, err := transport.NewTCPNetworkLocal(2)
		if err != nil {
			t.Fatal(err)
		}
		out, err := Run(rmi.LevelSiteReuseCycle, 64, 16, 2, rmi.WithNetwork(nw))
		if err != nil {
			t.Fatal(err)
		}
		if out.MaxResidual > 1e-8 {
			t.Fatalf("residual %g", out.MaxResidual)
		}
		nw.Close()
	}
	// Read loops unwind on their own goroutines after Close returns.
	if err := mark.Settled(nil); err != nil {
		t.Fatalf("after 3 runs: %v", err)
	}
}

// TestLUAllocsPerRMI pins what one RMI of the fully optimized LU run
// allocates over channels, runtime and driver together: nothing. Two
// matrix sizes run; the allocations the larger one adds, less its
// extra storage (two per block array — the scattered blocks and the
// copies the gather flushes into machine 0 — and the two n-row matrix
// images), are divided by the RMIs it adds. What is left (0.009 to
// 0.026 over ten runs) is mostly the barrier's per-phase generation,
// which grows as B while the fetches grow as B³. The budget fails a
// two-argument flush_block that decodes into a fresh slice instead of
// its invocation record (0.05 to 0.07), and a row-header slice made
// per block access reads over 1.
func TestLUAllocsPerRMI(t *testing.T) {
	if testkit.Enabled {
		t.Skip("race instrumentation allocates on otherwise allocation-free paths")
	}
	const bs, nodes = 16, 2
	measure := func(n int) (allocs, rmis int64) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		out, err := Run(rmi.LevelSiteReuseCycle, n, bs, nodes)
		runtime.ReadMemStats(&after)
		if err != nil || out.MaxResidual > 1e-8 {
			t.Fatalf("n=%d: residual %g, %v", n, out.MaxResidual, err)
		}
		B, arrays := n/bs, 0
		for I := 0; I < B; I++ {
			for J := 0; J < B; J++ {
				arrays++
				if (I+J)%nodes != 0 {
					arrays++
				}
			}
		}
		storage := int64(2*arrays + 2*(n+1))
		return int64(after.Mallocs-before.Mallocs) - storage, out.Stats.LocalRPCs + out.Stats.RemoteRPCs
	}
	measure(128) // first-run costs: compiler caches, pools
	a0, r0 := measure(128)
	a1, r1 := measure(256)
	per := float64(a1-a0) / float64(r1-r0)
	t.Logf("%d → %d allocations beyond storage over %d → %d RMIs: %.3f per RMI", a0, a1, r0, r1, per)
	if per > 0.04 {
		t.Fatalf("LU allocates %.3f per RMI, budget 0.04", per)
	}
}
