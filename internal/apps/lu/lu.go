// Package lu implements the SPLASH-2 LU kernel of §5.2 (Tables 3/4):
// a blocked, pivot-free LU factorization of a dense n×n matrix
// distributed over the cluster. Blocks are scattered checkerboard
// style; every block an update needs is fetched through RMI (so
// accesses to locally owned operands become the paper's "local rpcs",
// which deep-clone), phases are separated by barriers on machine 0,
// and at the end every node flushes its blocks to machine 0 — "updates
// are flushed to machine 0 and a barrier is entered".
//
// The communication sketch is compiled by the optimizing compiler; its
// verdicts (block graphs are acyclic, fetched and flushed blocks are
// reusable, flush and barrier replies collapse to acks) drive the
// serializers at each optimization level.
package lu

import (
	"fmt"
	"sync"

	"cormi/internal/apps/appkit"
	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/rmi"
)

// Src is the MiniJP communication sketch: the remote surface of the LU
// program, written so the compiler sees exactly the call sites the Go
// driver below performs.
const Src = `
remote class BlockStore {
	double[][] blocks;
	void init(int nblocks, int bs) {
		this.blocks = new double[nblocks][];
		for (int i = 0; i < nblocks; i = i + 1) {
			this.blocks[i] = new double[bs * bs];
		}
	}
	double[] get_block(int idx) {
		return this.blocks[idx];
	}
	void flush_block(int idx, double[] b) {
		double[] mine = this.blocks[idx];
		for (int r = 0; r < b.length; r = r + 1) {
			mine[r] = b[r];
		}
	}
}
remote class Barrier {
	void await() { }
}
class Driver {
	static void interior(BlockStore po, BlockStore qo, int ia, int ib) {
		double[] a = po.get_block(ia);
		double[] b = qo.get_block(ib);
		double x = a[0] + b[0];
	}
	static void perimeter(BlockStore diago, int idiag) {
		double[] diag = diago.get_block(idiag);
		double x = diag[0];
	}
	static void main() {
		BlockStore s = new BlockStore();
		s.init(16, 16);
		Driver.perimeter(s, 0);
		Driver.interior(s, s, 1, 2);
		double[] blk = s.get_block(3);
		s.flush_block(3, blk);
		Barrier bar = new Barrier();
		bar.await();
	}
}
`

// FlopNS is the virtual cost of one fused multiply-add on the modeled
// 1 GHz Pentium III (calibrated so computation and communication have
// paper-like proportions at n=1024).
const FlopNS = 12

// Outcome is the benchmark result plus correctness witnesses.
type Outcome struct {
	appkit.RunResult
	// MaxResidual is max |(L·U)[i][j] - A[i][j]| over the matrix.
	MaxResidual float64
}

// Sites bundles the compiled call sites the driver uses.
type sites struct {
	perimGet *rmi.CallSite // Driver.perimeter's diag fetch
	intGetA  *rmi.CallSite // Driver.interior's first fetch
	intGetB  *rmi.CallSite // Driver.interior's second fetch
	mainGet  *rmi.CallSite // final gather fetch
	flush    *rmi.CallSite
	barrier  *rmi.CallSite
}

// Run factors an n×n matrix with block size bs over `nodes` machines
// at the given optimization level (the paper uses n=1024, 2 CPUs).
// Extra cluster options (fault injection, call policies) apply to the
// run.
func Run(level rmi.OptLevel, n, bs, nodes int, clusterOpts ...rmi.Option) (Outcome, error) {
	if n%bs != 0 {
		return Outcome{}, fmt.Errorf("lu: n=%d not divisible by bs=%d", n, bs)
	}
	B := n / bs

	cluster := rmi.New(nodes, clusterOpts...)
	defer cluster.Close()
	res, err := core.CompileInto(Src, cluster.Registry)
	if err != nil {
		return Outcome{}, err
	}

	var st sites
	for _, pick := range []struct {
		dst  **rmi.CallSite
		name string
	}{
		{&st.intGetA, "Driver.interior.1"},
		{&st.intGetB, "Driver.interior.2"},
		{&st.perimGet, "Driver.perimeter.1"},
		{&st.mainGet, "Driver.main.2"},
		{&st.flush, "Driver.main.3"},
		{&st.barrier, "Driver.main.4"},
	} {
		si := res.SiteByName(pick.name)
		if si == nil {
			return Outcome{}, fmt.Errorf("lu: sketch has no call site %s", pick.name)
		}
		cs, err := appkit.Register(cluster, level, si)
		if err != nil {
			return Outcome{}, err
		}
		*pick.dst = cs
	}
	// A barrier call legitimately blocks until every party arrives, so
	// its reply can trail the per-attempt deadline by design. Deepen the
	// retry budget instead of lengthening the timeout: spurious
	// retransmits are absorbed by the callee's dedup cache, while a
	// genuinely lost barrier call is still retransmitted promptly.
	if barPol := cluster.CallPolicy(); barPol.Timeout > 0 {
		if barPol.Retries < 64 {
			barPol.Retries = 64
		}
		// A deep budget must not inherit unbounded doubling: cap the
		// backoff at one timeout so every retransmit in the budget
		// stays prompt.
		if barPol.MaxBackoff <= 0 || barPol.MaxBackoff > barPol.Timeout {
			barPol.MaxBackoff = barPol.Timeout
		}
		st.barrier.SetCallPolicy(barPol)
	}

	// Deterministic diagonally dominant matrix (no pivoting needed).
	orig := make([][]float64, n)
	for i := range orig {
		orig[i] = make([]float64, n)
		for j := range orig[i] {
			orig[i][j] = synth(i, j)
			if i == j {
				orig[i][j] += float64(n)
			}
		}
	}

	// Scatter: each node materializes its owned blocks locally (the
	// SPLASH-2 initialization is node-local too).
	owner := func(I, J int) int { return (I + J) % nodes }
	stores := make([]*blockStore, nodes)
	refs := make([]rmi.Ref, nodes)
	for w := 0; w < nodes; w++ {
		stores[w] = newBlockStore(cluster.Registry, B)
		refs[w] = cluster.Node(w).Export(stores[w].service())
	}
	for I := 0; I < B; I++ {
		for J := 0; J < B; J++ {
			w := owner(I, J)
			// Blocks travel flattened (bs² doubles), as in SPLASH-2's
			// contiguous block layout.
			blk := model.NewArray(cluster.Registry.DoubleArray(), bs*bs)
			for r := 0; r < bs; r++ {
				copy(blk.Doubles[r*bs:(r+1)*bs], orig[I*bs+r][J*bs:(J+1)*bs])
			}
			stores[w].put(I*B+J, blk)
		}
	}
	barRef := cluster.Node(0).Export(rmi.NewBarrierService(nodes))

	// Workers: one driver goroutine per machine. On the first worker
	// failure the cluster is closed immediately: peers blocked in a
	// barrier or mid-invoke are unblocked (ErrClusterClosed / barrier
	// shutdown) instead of waiting forever for a party that already
	// gave up — the failure path under heavy loss must terminate too.
	var wg sync.WaitGroup
	errs := make(chan error, nodes)
	for w := 0; w < nodes; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			if err := worker(cluster, st, stores, refs, barRef, owner, w, B, bs, nodes); err != nil {
				errs <- fmt.Errorf("lu worker %d: %w", w, err)
			}
		}(w)
	}
	go func() { wg.Wait(); close(errs) }()
	var firstErr error
	for err := range errs {
		if firstErr == nil {
			firstErr = err
			cluster.Close()
		}
	}
	if firstErr != nil {
		return Outcome{}, firstErr
	}

	// Gather: every non-0 node flushes its blocks to machine 0, which
	// stores them into its own matrix image; then verify L·U = A.
	full := make([][]float64, n)
	for i := range full {
		full[i] = make([]float64, n)
	}
	node0 := cluster.Node(0)
	getArgs, flushArgs := make([]model.Value, 1), make([]model.Value, 2)
	for I := 0; I < B; I++ {
		for J := 0; J < B; J++ {
			w := owner(I, J)
			var blk *model.Object
			if w == 0 {
				blk = stores[0].get(I*B + J)
			} else {
				getArgs[0] = model.Int(int64(I*B + J))
				rets, err := st.mainGet.Invoke(node0, refs[w], getArgs)
				if err != nil {
					return Outcome{}, err
				}
				blk = rets[0].O
				// Flush a copy back into machine 0's store, as the
				// paper's program does.
				flushArgs[0], flushArgs[1] = model.Int(int64(I*B+J)), model.Ref(blk)
				if _, err := st.flush.Invoke(node0, refs[0], flushArgs); err != nil {
					return Outcome{}, err
				}
			}
			for r := 0; r < bs; r++ {
				copy(full[I*bs+r][J*bs:(J+1)*bs], blk.Doubles[r*bs:(r+1)*bs])
			}
		}
	}

	out := Outcome{RunResult: appkit.Collect(cluster)}
	out.MaxResidual = residual(orig, full, n)
	return out, nil
}

// synth is a deterministic pseudo-random matrix entry in [0,1).
func synth(i, j int) float64 {
	x := uint64(i)*2654435761 + uint64(j)*40503 + 12345
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	return float64(x%1000000) / 1000000
}

// residual computes max |(L·U)[i][j] - A[i][j]| from the packed
// factorization `lu` (unit lower L below the diagonal, U on and above).
func residual(a, lu [][]float64, n int) float64 {
	var worst float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			var s float64
			kmax := i
			if j < i {
				kmax = j
			}
			for k := 0; k < kmax; k++ {
				s += lu[i][k] * lu[k][j]
			}
			if j >= i {
				s += lu[i][j] // L[i][i] = 1
			} else {
				s += lu[i][j] * lu[j][j]
			}
			d := s - a[i][j]
			if d < 0 {
				d = -d
			}
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}
