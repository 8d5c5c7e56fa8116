// Package micro implements the paper's two micro-benchmarks (§5.1):
// transmitting a linked list of 100 elements (Figure 14, Table 1) and
// transmitting a 16×16 two-dimensional array of doubles (Figure 12,
// Table 2) between two nodes.
//
// Each benchmark embeds its MiniJP communication sketch, compiles it
// with the optimizing RMI compiler, and registers the derived
// call-site plans on the runtime at the requested optimization level —
// so the serializer behavior measured here is exactly what the
// compiler decided, not hand-written configuration.
package micro

import (
	"fmt"
	"sync/atomic"

	"cormi/internal/apps/appkit"
	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/rmi"
)

// LinkedListSrc is the Figure 14 program.
const LinkedListSrc = `
class LinkedList {
	LinkedList Next;
	LinkedList(LinkedList n) { this.Next = n; }
}
remote class Foo {
	void send(LinkedList l) { }
	static void benchmark() {
		LinkedList head = null;
		for (int i = 0; i < 100; i = i + 1) {
			head = new LinkedList(head);
		}
		Foo f = new Foo();
		f.send(head);
	}
}
`

// ArrayBenchSrc is the Figure 12 program.
const ArrayBenchSrc = `
remote class ArrayBench {
	void send(double[][] arr) { }
	static void benchmark() {
		double[][] arr = new double[16][16];
		ArrayBench f = new ArrayBench();
		f.send(arr);
	}
}
`

// LinkedListOutcome extends the run result with correctness witnesses.
type LinkedListOutcome struct {
	appkit.RunResult
	// ElementsSeen is the list length observed by the receiver on the
	// last invocation.
	ElementsSeen int64
	// Executions counts how many times the user method body actually
	// ran; under fault injection it must equal iters exactly — a
	// retransmitted call that re-executed would inflate it.
	Executions int64
}

// RunLinkedList transmits a linked list of elems nodes iters times
// from node 0 to node 1 under the given optimization level (Table 1
// uses elems=100). Extra cluster options (fault injection, call
// policies) apply to the run.
func RunLinkedList(level rmi.OptLevel, elems, iters int, clusterOpts ...rmi.Option) (LinkedListOutcome, error) {
	return runLinkedList(level, elems, iters, core.Options{}, clusterOpts...)
}

func runLinkedList(level rmi.OptLevel, elems, iters int, opts core.Options, clusterOpts ...rmi.Option) (LinkedListOutcome, error) {
	cluster := rmi.New(2, clusterOpts...)
	defer cluster.Close()

	res, err := core.CompileOpts(LinkedListSrc, cluster.Registry, opts)
	if err != nil {
		return LinkedListOutcome{}, err
	}
	si, err := appkit.SoleSite(res, "Foo.send")
	if err != nil {
		return LinkedListOutcome{}, err
	}
	cs, err := appkit.Register(cluster, level, si)
	if err != nil {
		return LinkedListOutcome{}, err
	}

	var seen, execs atomic.Int64
	svc := &rmi.Service{Name: "Foo", Methods: map[string]rmi.Method{
		"send": func(call *rmi.Call, args []model.Value) []model.Value {
			execs.Add(1)
			var n int64
			for o := args[0].O; o != nil; o = o.Fields[0].O {
				n++
			}
			seen.Store(n)
			return nil
		},
	}}
	ref := cluster.Node(1).Export(svc)

	nodeClass, ok := res.ModelClass("LinkedList")
	if !ok {
		return LinkedListOutcome{}, fmt.Errorf("micro: LinkedList class missing")
	}
	var head *model.Object
	for i := 0; i < elems; i++ {
		x := model.New(nodeClass)
		x.Fields[0] = model.Ref(head)
		head = x
	}

	caller := cluster.Node(0)
	for i := 0; i < iters; i++ {
		if _, err := cs.Invoke(caller, ref, []model.Value{model.Ref(head)}); err != nil {
			return LinkedListOutcome{}, err
		}
	}
	return LinkedListOutcome{
		RunResult:    appkit.Collect(cluster),
		ElementsSeen: seen.Load(),
		Executions:   execs.Load(),
	}, nil
}

// ArrayOutcome extends the run result with correctness witnesses.
type ArrayOutcome struct {
	appkit.RunResult
	// SumSeen is the element sum observed by the receiver on the last
	// invocation.
	SumSeen float64
	// Executions counts user-method body executions (see
	// LinkedListOutcome.Executions).
	Executions int64
}

// RunArray transmits a size×size double array iters times from node 0
// to node 1 (Table 2 uses size=16). Extra cluster options (fault
// injection, call policies) apply to the run.
func RunArray(level rmi.OptLevel, size, iters int, clusterOpts ...rmi.Option) (ArrayOutcome, error) {
	cluster := rmi.New(2, clusterOpts...)
	defer cluster.Close()

	res, err := core.CompileInto(ArrayBenchSrc, cluster.Registry)
	if err != nil {
		return ArrayOutcome{}, err
	}
	si, err := appkit.SoleSite(res, "ArrayBench.send")
	if err != nil {
		return ArrayOutcome{}, err
	}
	cs, err := appkit.Register(cluster, level, si)
	if err != nil {
		return ArrayOutcome{}, err
	}

	sum := make(chan float64, 1)
	var execs atomic.Int64
	svc := &rmi.Service{Name: "ArrayBench", Methods: map[string]rmi.Method{
		"send": func(call *rmi.Call, args []model.Value) []model.Value {
			execs.Add(1)
			var s float64
			for _, row := range args[0].O.Refs {
				for _, v := range row.Doubles {
					s += v
				}
			}
			select {
			case <-sum:
			default:
			}
			sum <- s
			return nil
		},
	}}
	ref := cluster.Node(1).Export(svc)

	arr := model.NewArray(cluster.Registry.MustByName("double[][]"), size)
	var want float64
	for i := range arr.Refs {
		row := model.NewArray(cluster.Registry.DoubleArray(), size)
		for j := range row.Doubles {
			row.Doubles[j] = float64(i + j)
			want += row.Doubles[j]
		}
		arr.Refs[i] = row
	}

	caller := cluster.Node(0)
	for i := 0; i < iters; i++ {
		if _, err := cs.Invoke(caller, ref, []model.Value{model.Ref(arr)}); err != nil {
			return ArrayOutcome{}, err
		}
	}
	out := ArrayOutcome{RunResult: appkit.Collect(cluster), Executions: execs.Load()}
	select {
	case out.SumSeen = <-sum:
	default:
	}
	if iters > 0 && out.SumSeen != want {
		return out, fmt.Errorf("micro: receiver saw sum %g, want %g", out.SumSeen, want)
	}
	return out, nil
}
