package lu

import (
	"fmt"
	"sync"

	"cormi/internal/model"
	"cormi/internal/rmi"
)

// blockStore is one node's block storage, exported as the BlockStore
// remote service of the sketch.
type blockStore struct {
	mu     sync.RWMutex
	blocks map[int]*model.Object
	reg    *model.Registry
}

func newBlockStore(reg *model.Registry, b int) *blockStore {
	return &blockStore{blocks: make(map[int]*model.Object), reg: reg}
}

func (s *blockStore) put(idx int, blk *model.Object) {
	s.mu.Lock()
	s.blocks[idx] = blk
	s.mu.Unlock()
}

func (s *blockStore) get(idx int) *model.Object {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.blocks[idx]
}

// service exposes get_block and flush_block. flush copies element-wise
// into the existing local block — the incoming argument graph is not
// retained, which is what makes the compiler's reuse verdict sound.
func (s *blockStore) service() *rmi.Service {
	return &rmi.Service{
		Name: "BlockStore",
		Methods: map[string]rmi.Method{
			"get_block": func(call *rmi.Call, args []model.Value) []model.Value {
				blk := s.get(int(args[0].I))
				if blk == nil {
					panic(fmt.Sprintf("lu: no block %d on node %d", args[0].I, call.Node.ID))
				}
				return []model.Value{model.Ref(blk)}
			},
			"flush_block": func(call *rmi.Call, args []model.Value) []model.Value {
				idx := int(args[0].I)
				in := args[1].O
				dst := s.get(idx)
				if dst == nil {
					// First flush of this index: materialize storage.
					dst = model.NewArray(s.reg.DoubleArray(), len(in.Doubles))
					s.put(idx, dst)
				}
				copy(dst.Doubles, in.Doubles)
				return nil
			},
		},
	}
}

// view exposes a flattened bs²-double block as [][]float64 rows
// sharing the same backing storage.
func view(o *model.Object, bs int) [][]float64 {
	rows := make([][]float64, bs)
	for i := range rows {
		rows[i] = o.Doubles[i*bs : (i+1)*bs]
	}
	return rows
}

// worker drives machine w's share of the factorization.
func worker(cluster *rmi.Cluster, st sites, stores []*blockStore, refs []rmi.Ref,
	barRef rmi.Ref, owner func(int, int) int, w, B, bs, nodes int) error {

	node := cluster.Node(w)
	idx := func(I, J int) int { return I*B + J }
	fetch := func(cs *rmi.CallSite, I, J int) ([][]float64, error) {
		rets, err := cs.Invoke(node, refs[owner(I, J)], []model.Value{model.Int(int64(idx(I, J)))})
		if err != nil {
			return nil, err
		}
		return view(rets[0].O, bs), nil
	}
	barrier := func() error {
		_, err := st.barrier.Invoke(node, barRef, nil)
		return err
	}

	for K := 0; K < B; K++ {
		// Phase 1: factor the diagonal block.
		if owner(K, K) == w {
			factorDiag(view(stores[w].get(idx(K, K)), bs))
			node.Clock.Advance(int64(bs*bs*bs/3) * FlopNS)
		}
		if err := barrier(); err != nil {
			return err
		}

		// Phase 2: perimeter row and column updates need the diagonal.
		for J := K + 1; J < B; J++ {
			if owner(K, J) != w {
				continue
			}
			diag, err := fetch(st.perimGet, K, K)
			if err != nil {
				return err
			}
			rowUpdate(view(stores[w].get(idx(K, J)), bs), diag)
			node.Clock.Advance(int64(bs*bs*bs/2) * FlopNS)
		}
		for I := K + 1; I < B; I++ {
			if owner(I, K) != w {
				continue
			}
			diag, err := fetch(st.perimGet, K, K)
			if err != nil {
				return err
			}
			colUpdate(view(stores[w].get(idx(I, K)), bs), diag)
			node.Clock.Advance(int64(bs*bs*bs/2) * FlopNS)
		}
		if err := barrier(); err != nil {
			return err
		}

		// Phase 3: interior updates need one row block and one column
		// block (two distinct fetch call sites, as in the sketch's
		// Driver.interior).
		for I := K + 1; I < B; I++ {
			for J := K + 1; J < B; J++ {
				if owner(I, J) != w {
					continue
				}
				a, err := fetch(st.intGetA, I, K)
				if err != nil {
					return err
				}
				b, err := fetch(st.intGetB, K, J)
				if err != nil {
					return err
				}
				matmulSub(view(stores[w].get(idx(I, J)), bs), a, b)
				node.Clock.Advance(int64(2*bs*bs*bs) * FlopNS)
			}
		}
		if err := barrier(); err != nil {
			return err
		}
	}
	return nil
}

// factorDiag factors a diagonal block in place (unit lower L, U on and
// above the diagonal).
func factorDiag(a [][]float64) {
	n := len(a)
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			a[i][k] /= a[k][k]
			f := a[i][k]
			for j := k + 1; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
		}
	}
}

// rowUpdate applies A = L(diag)⁻¹ · A for a block in the pivot row.
func rowUpdate(a [][]float64, diag [][]float64) {
	n := len(a)
	for k := 0; k < n; k++ {
		for i := k + 1; i < n; i++ {
			f := diag[i][k]
			for j := 0; j < n; j++ {
				a[i][j] -= f * a[k][j]
			}
		}
	}
}

// colUpdate applies A = A · U(diag)⁻¹ for a block in the pivot column.
func colUpdate(a [][]float64, diag [][]float64) {
	n := len(a)
	for k := 0; k < n; k++ {
		d := diag[k][k]
		for i := 0; i < n; i++ {
			a[i][k] /= d
		}
		for j := k + 1; j < n; j++ {
			f := diag[k][j]
			for i := 0; i < n; i++ {
				a[i][j] -= a[i][k] * f
			}
		}
	}
}

// matmulSub applies C -= A·B.
func matmulSub(c, a, b [][]float64) {
	n := len(c)
	for i := 0; i < n; i++ {
		for k := 0; k < n; k++ {
			f := a[i][k]
			if f == 0 {
				continue
			}
			row := b[k]
			ci := c[i]
			for j := 0; j < n; j++ {
				ci[j] -= f * row[j]
			}
		}
	}
}
