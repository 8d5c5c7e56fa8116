// Package ir is the compiler's intermediate representation: a
// three-address, control-flow-graph form in SSA (§2 step 1 of the
// paper requires SSA before the heap analysis). SSA is built directly
// during lowering with the sealed-block algorithm of Braun et al.;
// dominators are computed separately and used to validate the result.
package ir

import (
	"fmt"

	"cormi/internal/lang"
	"cormi/internal/slab"
)

// Op enumerates instruction operations.
type Op int

const (
	// OpConst materializes a literal (int, double, boolean, String or
	// null, per the Const* fields).
	OpConst Op = iota
	// OpBin is a binary operation (BinOp field).
	OpBin
	// OpUn is unary - or !.
	OpUn
	// OpNew allocates a class instance (Class, AllocID).
	OpNew
	// OpNewArray allocates one array level (AllocID, the result type
	// is Dst.Type).
	OpNewArray
	// OpLoad reads Args[0].Field.
	OpLoad
	// OpStore writes Args[1] into Args[0].Field.
	OpStore
	// OpLoadStatic reads a static field.
	OpLoadStatic
	// OpStoreStatic writes Args[0] into a static field.
	OpStoreStatic
	// OpLoadIdx reads Args[0][Args[1]].
	OpLoadIdx
	// OpStoreIdx writes Args[2] into Args[0][Args[1]].
	OpStoreIdx
	// OpArrayLen reads Args[0].length.
	OpArrayLen
	// OpCall is a direct (non-RMI) call; Args holds the receiver
	// first for instance methods and constructors.
	OpCall
	// OpRemoteCall is an RMI call site (SiteID); Args[0] is the remote
	// receiver.
	OpRemoteCall
	// OpStrBuiltin is a String builtin (hashCode/length) on Args[0].
	OpStrBuiltin
	// OpRet returns Args[0] if present.
	OpRet
	// OpJump transfers to Targets[0].
	OpJump
	// OpBranch tests Args[0] and transfers to Targets[0] (true) or
	// Targets[1] (false).
	OpBranch
	// OpPhi merges Args[i] flowing in from PhiPreds[i].
	OpPhi
	// OpCopy is a plain move (used for parameter passing summaries).
	OpCopy
)

var opNames = map[Op]string{
	OpConst: "const", OpBin: "bin", OpUn: "un", OpNew: "new",
	OpNewArray: "newarray", OpLoad: "load", OpStore: "store",
	OpLoadStatic: "loadstatic", OpStoreStatic: "storestatic",
	OpLoadIdx: "loadidx", OpStoreIdx: "storeidx", OpArrayLen: "arraylen",
	OpCall: "call", OpRemoteCall: "rcall", OpStrBuiltin: "strbuiltin",
	OpRet: "ret", OpJump: "jump", OpBranch: "branch", OpPhi: "phi",
	OpCopy: "copy",
}

func (o Op) String() string { return opNames[o] }

// Value is an SSA value.
type Value struct {
	ID   int
	Def  *Instr // nil for parameters
	Type lang.Type
	Name string // debug name
	Uses []*Instr

	// uses0 backs Uses until a third use appears: most values are
	// used once or twice.
	uses0 [2]*Instr
}

func (v *Value) String() string {
	if v == nil {
		return "_"
	}
	if v.Name != "" {
		return fmt.Sprintf("v%d(%s)", v.ID, v.Name)
	}
	return fmt.Sprintf("v%d", v.ID)
}

// Instr is one instruction.
type Instr struct {
	Op    Op
	Block *Block
	Dst   *Value
	Args  []*Value

	// Literal payloads for OpConst.
	ConstInt    int64
	ConstFloat  float64
	ConstBool   bool
	ConstStr    string
	ConstIsNull bool
	ConstKind   lang.PrimKind

	BinOp    string           // OpBin/OpUn operator text
	Class    *lang.ClassDecl  // OpNew
	AllocID  int              // OpNew/OpNewArray allocation site number
	Field    *lang.FieldDecl  // field/static ops
	Callee   *lang.MethodDecl // OpCall/OpRemoteCall
	SiteID   int              // OpRemoteCall call-site number
	Builtin  string           // OpStrBuiltin
	Targets  []*Block         // OpJump/OpBranch
	PhiPreds []*Block         // OpPhi, aligned with Args
}

// Block is a basic block.
type Block struct {
	ID     int
	Func   *Func
	Instrs []*Instr
	Preds  []*Block
	Succs  []*Block

	// preds0 and succs0 back Preds and Succs: structured control flow
	// gives a block at most two successors and rarely more
	// predecessors.
	preds0, succs0 [2]*Block
}

// Terminator returns the block's final control instruction, or nil.
func (b *Block) Terminator() *Instr {
	if len(b.Instrs) == 0 {
		return nil
	}
	t := b.Instrs[len(b.Instrs)-1]
	switch t.Op {
	case OpJump, OpBranch, OpRet:
		return t
	}
	return nil
}

// Func is one lowered method.
type Func struct {
	Name   string
	Method *lang.MethodDecl
	// Params are the SSA parameter values; for instance methods and
	// constructors Params[0] is the receiver ("this").
	Params []*Value
	Blocks []*Block

	nextValue int
	// rets are the values the function's OpRet instructions return,
	// in block order, collected once at the end of lowering.
	rets []*Value
}

// Entry returns the entry block.
func (f *Func) Entry() *Block { return f.Blocks[0] }

// Instrs iterates all instructions of f in block order.
func (f *Func) Instrs(yield func(*Instr) bool) {
	for _, b := range f.Blocks {
		for _, in := range b.Instrs {
			if !yield(in) {
				return
			}
		}
	}
}

// Program is the lowered compilation unit.
type Program struct {
	Lang  *lang.Program
	Funcs []*Func
	// FuncOf maps declarations with bodies to their lowered form.
	FuncOf map[*lang.MethodDecl]*Func
	// RemoteSites indexes the OpRemoteCall instructions by SiteID.
	RemoteSites []*Instr
	// AllocSites indexes OpNew/OpNewArray instructions by AllocID
	// (entries may be nil for allocation sites in bodiless methods).
	AllocSites []*Instr
	// dispatch maps each remote callee to the methods its calls may
	// run (DispatchTargets).
	dispatch map[*lang.MethodDecl][]*lang.MethodDecl

	// Every Func, Block, Value and Instr of the program, and the
	// pointer slices that link them, are carved from these slabs: the
	// program is the allocation unit, and it owns them for as long as
	// a core.Result keeps the IR.
	funcs     slab.Of[Func]
	blocks    slab.Of[Block]
	values    slab.Of[Value]
	instrs    slab.Of[Instr]
	blockPtrs slab.Of[*Block]
	valuePtrs slab.Of[*Value]
	instrPtrs slab.Of[*Instr]
}
