package harness

import (
	"testing"
	"time"

	"cormi/internal/apps/appkit"
	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/transport"
)

// matrixSpec is the matrix's fault mix: DefaultChaosSpec's rates with a
// 10 ms per-attempt deadline. A chain call takes microseconds, so the
// deadline only paces recovery from a lost frame, and the matrix has
// 150 lossy cells to get through.
func matrixSpec() ChaosSpec {
	spec := DefaultChaosSpec(42)
	spec.Policy.Timeout = 10 * time.Millisecond
	return spec
}

// matrixConditions are the six link conditions of the mode matrix.
func matrixConditions() []Condition {
	faulty := Faulty(matrixSpec())
	return []Condition{Clean, TCP, faulty, Both(TCP, faulty), Skew(1), Both(Skew(1), faulty)}
}

// TestModeMatrix is the gate for "all call modes × optimization levels
// × transports compute the same answers; resources balanced at Close":
// both chain workloads × six link conditions × five levels × three call
// modes. runGrid holds every cell to the workload's own witness (chain
// results, exactly-once execution), to the negotiation evidence of its
// condition, to the answer of the
// workload's first cell — {class, clean channel, sync} — and to the
// Close-balance check.
func TestModeMatrix(t *testing.T) {
	const depth, chains = 5, 6
	start := time.Now()
	workloads := append(chainWorkloads(intChain, AllChainModes, depth, chains),
		chainWorkloads(listChain, AllChainModes, depth, chains)...)
	rep := &Report{Cols: []Column[Row]{appCol, levelCol,
		{"condition", -12, "%s", func(r *Row) any { return r.Cond }},
		{"mode", -10, "%s", func(r *Row) any { return r.Mode }},
		resultCol}}
	_ = runGrid(rep, Scale{Nodes: 2}, workloads, matrixConditions(), rmi.AllLevels)
	failed := 0
	for i := range rep.Rows {
		if r := &rep.Rows[i]; r.Err != nil {
			failed++
			t.Errorf("%s: %v", r.Cell(), r.Err)
		}
	}
	if want := 2 * 6 * len(rmi.AllLevels) * len(AllChainModes); len(rep.Rows) != want {
		t.Errorf("ran %d cells, want %d", len(rep.Rows), want)
	}
	t.Logf("mode matrix: %d cells, %d failed, %.1fs", len(rep.Rows), failed, time.Since(start).Seconds())
}

// TCP runs the cell over loopback TCP connections.
var TCP = Condition{Name: "tcp", Options: func(_ int, s Scale) ([]rmi.Option, error) {
	nw, err := transport.NewTCPNetworkLocal(s.Nodes)
	if err != nil {
		return nil, err
	}
	return []rmi.Option{rmi.WithNetwork(nw)}, nil
}}

// Both is the product of two conditions: b's options after a's, so a
// fault injector wraps a TCP network.
func Both(a, b Condition) Condition {
	return Condition{Name: a.Name + "+" + b.Name, Skewed: a.Skewed || b.Skewed,
		Options: func(row int, s Scale) ([]rmi.Option, error) {
			ao, err := a.Options(row, s)
			if err != nil {
				return nil, err
			}
			bo, err := b.Options(row, s)
			return append(ao, bo...), err
		}}
}

// AllChainModes is every mode, in the matrix's order.
var AllChainModes = []ChainMode{ChainSync, ChainParallel, ChainLocal}

// listChainSrc is the list chain's communication sketch: the callee
// adds 100 to every element of its argument — a write the caller must
// never see — and answers a fresh list one element longer; the caller
// reads its argument after the call. So the compiler may grant argument
// reuse at the callee (nothing of the argument survives the call) and
// must deny return reuse at the caller (the result is live across the
// site's next firing).
const listChainSrc = `
class L {
	int v;
	L next;
	L(int v, L n) { this.v = v; this.next = n; }
}
remote class Grower {
	L step(L l) {
		L out = new L(0, null);
		L p = l;
		while (p != null) {
			p.v = p.v + 100;
			out = new L(p.v, out);
			p = p.next;
		}
		return out;
	}
}
class Main {
	static int main() {
		Grower g = new Grower();
		L l = new L(1, null);
		int seen = 0;
		for (int i = 0; i < 5; i = i + 1) {
			L r = g.step(l);
			seen = seen + l.v;
			l = r;
		}
		return seen + l.v;
	}
}
`

// newL allocates one list cell of the compiled class L (v, next).
func newL(l *model.Class, v int64, next *model.Object) *model.Object {
	o := model.New(l)
	o.Fields[0], o.Fields[1] = model.Int(v), model.Ref(next)
	return o
}

// listChain is Grower.step, its call site compiled from listChainSrc.
var listChain = chainKind{
	name:    "ListChain",
	objects: true,
	setup: func(c *rmi.Cluster, level rmi.OptLevel, node int, exec func(*rmi.Call)) (*rmi.CallSite, rmi.Ref, error) {
		res, err := core.CompileInto(listChainSrc, c.Registry)
		if err != nil {
			return nil, rmi.Ref{}, err
		}
		si, err := appkit.SoleSite(res, "Grower.step")
		if err != nil {
			return nil, rmi.Ref{}, err
		}
		cs, err := appkit.Register(c, level, si)
		return cs, export(c, node, "Grower", "step", exec, growList), err
	},
	seed: func(c *rmi.Cluster, it int) model.Value {
		return model.Ref(newL(c.Registry.MustByName("L"), int64(it), nil))
	},
	step: growList,
}

// growList is Grower.step as the service runs it.
func growList(x model.Value) model.Value {
	out := newL(x.O.Class, 0, nil)
	for p := x.O; p != nil; p = p.Fields[1].O {
		p.Fields[0].I += 100
		out = newL(x.O.Class, p.Fields[0].I, out)
	}
	return model.Ref(out)
}
