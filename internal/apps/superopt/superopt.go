package superopt

import (
	"fmt"
	"sort"
	"sync"

	"cormi/internal/apps/appkit"
	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/rmi"
)

// Src is the MiniJP communication sketch: the program/instruction/
// operand object graph and the producer→tester RMI surface.
const Src = `
class Operand { int kind; int val; }
class Instr {
	int op;
	Operand a;
	Operand b;
	Operand c;
}
class Program { Instr[] insns; }
remote class Tester {
	Program queued;
	void test(Program p) {
		this.queued = p;
	}
	int match_count() { return 0; }
}
class Generator {
	static void produce(Tester t) {
		Program p = new Program();
		p.insns = new Instr[3];
		for (int i = 0; i < 3; i = i + 1) {
			Instr ins = new Instr();
			ins.a = new Operand();
			ins.b = new Operand();
			ins.c = new Operand();
			p.insns[i] = ins;
		}
		t.test(p);
		int n = t.match_count();
		int use = n + 1;
	}
	static void main() {
		Tester t = new Tester();
		Generator.produce(t);
	}
}
`

// evalInsnNS is the virtual cost of interpreting one instruction
// during an equivalence trial.
const evalInsnNS = 400

// Params configures a search.
type Params struct {
	Target Seq
	MaxLen int
	Ops    []Op
	NRegs  int
	Imms   []int64
	Trials int
	Nodes  int
	// QueueDepth bounds each tester's queue; the producer blocks when
	// a queue is full, exactly as in the paper.
	QueueDepth int
}

// DefaultParams returns a search for a cheaper form of r0 = r0 + r0
// over two registers, matching the paper's ≤3-instruction exhaustive
// setup at a test-friendly scale.
func DefaultParams() Params {
	return Params{
		Target:     Seq{{Op: OpAdd, Dst: 0, Src: 0}},
		MaxLen:     2,
		Ops:        []Op{OpMov, OpAdd, OpSub, OpXor, OpShl, OpShr, OpLoadI},
		NRegs:      2,
		Imms:       []int64{0, 1},
		Trials:     8,
		Nodes:      2,
		QueueDepth: 32,
	}
}

// Outcome is the benchmark result plus the found equivalences.
type Outcome struct {
	appkit.RunResult
	Tested  int64
	Matches []string // canonical renderings of matching sequences
}

// Search runs the exhaustive search at the given optimization level.
func Search(level rmi.OptLevel, p Params, clusterOpts ...rmi.Option) (Outcome, error) {
	if p.Nodes < 1 || p.MaxLen < 1 {
		return Outcome{}, fmt.Errorf("superopt: bad params")
	}
	cluster := rmi.New(p.Nodes, clusterOpts...)
	defer cluster.Close()
	res, err := core.CompileInto(Src, cluster.Registry)
	if err != nil {
		return Outcome{}, err
	}
	testSite := res.SiteByName("Generator.produce.1")
	countSite := res.SiteByName("Generator.produce.2")
	if testSite == nil || countSite == nil {
		return Outcome{}, fmt.Errorf("superopt: sketch sites missing")
	}
	csTest, err := appkit.Register(cluster, level, testSite)
	if err != nil {
		return Outcome{}, err
	}
	csCount, err := appkit.Register(cluster, level, countSite)
	if err != nil {
		return Outcome{}, err
	}

	enc := newCodec(res)

	// One tester per machine, as in the paper.
	testers := make([]*tester, p.Nodes)
	refs := make([]rmi.Ref, p.Nodes)
	for w := 0; w < p.Nodes; w++ {
		testers[w] = &tester{target: p.Target, trials: p.Trials, nregs: p.NRegs, codec: enc}
		refs[w] = cluster.Node(w).Export(testers[w].service())
	}

	// Per-tester bounded queues with feeder goroutines: the producer
	// blocks on a full queue, the feeder performs the actual RMI.
	queues := make([]chan Seq, p.Nodes)
	var wg sync.WaitGroup
	errs := make(chan error, p.Nodes)
	producerNode := cluster.Node(0)
	for w := 0; w < p.Nodes; w++ {
		queues[w] = make(chan Seq, p.QueueDepth)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for seq := range queues[w] {
				prog := enc.encode(seq)
				if _, err := csTest.Invoke(producerNode, refs[w], []model.Value{model.Ref(prog)}); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}

	// The producer: exhaustive enumeration, round-robin distribution.
	insns := Enumerate(p.Ops, p.NRegs, p.Imms)
	var tested int64
	next := 0
	var emit func(prefix Seq)
	emit = func(prefix Seq) {
		if len(prefix) > 0 {
			queues[next] <- append(Seq(nil), prefix...)
			next = (next + 1) % p.Nodes
			tested++
		}
		if len(prefix) == p.MaxLen {
			return
		}
		for _, in := range insns {
			emit(append(prefix, in))
		}
	}
	emit(nil)
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		return Outcome{}, err
	}

	// Present the list of equal sequences at termination; the count is
	// fetched over RMI (the sketch's match_count site).
	var total int64
	var all []string
	for w := 0; w < p.Nodes; w++ {
		rets, err := csCount.Invoke(producerNode, refs[w], nil)
		if err != nil {
			return Outcome{}, err
		}
		total += rets[0].I
		all = append(all, testers[w].matchStrings()...)
	}
	if int(total) != len(all) {
		return Outcome{}, fmt.Errorf("superopt: RMI count %d != local matches %d", total, len(all))
	}
	sort.Strings(all)

	out := Outcome{RunResult: appkit.Collect(cluster), Tested: tested, Matches: all}
	return out, nil
}

// tester is one machine's tester thread state.
type tester struct {
	target  Seq
	trials  int
	nregs   int
	codec   *codec
	mu      sync.Mutex
	matches []Seq
}

func (t *tester) service() *rmi.Service {
	return &rmi.Service{
		Name: "Tester",
		Methods: map[string]rmi.Method{
			"test": func(call *rmi.Call, args []model.Value) []model.Value {
				seq := t.codec.decode(args[0].O)
				// Virtual cost of executing candidate + target over
				// the trial vectors.
				call.Compute(int64(t.trials*(len(seq)+len(t.target))) * evalInsnNS)
				if Equivalent(t.target, seq, t.nregs, t.trials, 0x9E3779B97F4A7C15) {
					t.mu.Lock()
					t.matches = append(t.matches, seq)
					t.mu.Unlock()
				}
				return nil
			},
			"match_count": func(call *rmi.Call, args []model.Value) []model.Value {
				t.mu.Lock()
				n := len(t.matches)
				t.mu.Unlock()
				return []model.Value{model.Int(int64(n))}
			},
		},
	}
}

func (t *tester) matchStrings() []string {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]string, len(t.matches))
	for i, m := range t.matches {
		out[i] = m.String()
	}
	return out
}

// codec translates between Go sequences and the MiniJP object graph
// (Program → Instr[] → Instr → 3 Operands).
type codec struct {
	program, instr, operand, instrArr *model.Class
}

func newCodec(res *core.Result) *codec {
	prog, _ := res.ModelClass("Program")
	ins, _ := res.ModelClass("Instr")
	op, _ := res.ModelClass("Operand")
	arr := res.Registry.ArrayOf(ins)
	return &codec{program: prog, instr: ins, operand: op, instrArr: arr}
}

func (c *codec) operandOf(kind, val int64) *model.Object {
	o := model.New(c.operand)
	o.Fields[0] = model.Int(kind)
	o.Fields[1] = model.Int(val)
	return o
}

func (c *codec) encode(seq Seq) *model.Object {
	p := model.New(c.program)
	arr := model.NewArray(c.instrArr, len(seq))
	for i, in := range seq {
		o := model.New(c.instr)
		o.Fields[0] = model.Int(int64(in.Op))
		o.Fields[1] = model.Ref(c.operandOf(0, int64(in.Dst)))
		o.Fields[2] = model.Ref(c.operandOf(0, int64(in.Src)))
		o.Fields[3] = model.Ref(c.operandOf(1, in.Imm))
		arr.Refs[i] = o
	}
	p.Fields[0] = model.Ref(arr)
	return p
}

func (c *codec) decode(p *model.Object) Seq {
	arr := p.Fields[0].O
	seq := make(Seq, len(arr.Refs))
	for i, o := range arr.Refs {
		seq[i] = Insn{
			Op:  Op(o.Fields[0].I),
			Dst: int(o.Fields[1].O.Fields[1].I),
			Src: int(o.Fields[2].O.Fields[1].I),
			Imm: o.Fields[3].O.Fields[1].I,
		}
	}
	return seq
}
