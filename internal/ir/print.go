package ir

import (
	"fmt"
	"strconv"
	"strings"

	"cormi/internal/lang"
)

// String renders the function as readable SSA text, for rmic dumps and
// test diagnostics.
func (f *Func) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "func %s(", f.Name)
	for i, p := range f.Params {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", p, p.Type)
	}
	b.WriteString(") {\n")
	for _, blk := range f.Blocks {
		fmt.Fprintf(&b, "b%d:", blk.ID)
		if len(blk.Preds) > 0 {
			b.WriteString(" ; preds:")
			for _, p := range blk.Preds {
				fmt.Fprintf(&b, " b%d", p.ID)
			}
		}
		b.WriteByte('\n')
		for _, in := range blk.Instrs {
			b.WriteString("    ")
			b.WriteString(in.String())
			b.WriteByte('\n')
		}
	}
	b.WriteString("}\n")
	return b.String()
}

// String renders one instruction.
func (in *Instr) String() string {
	var b strings.Builder
	if in.Dst != nil {
		fmt.Fprintf(&b, "%s = ", in.Dst)
	}
	b.WriteString(in.Op.String())
	switch in.Op {
	case OpConst:
		switch {
		case in.ConstIsNull:
			b.WriteString(" null")
		case in.ConstKind == lang.PString:
			fmt.Fprintf(&b, " %q", in.ConstStr)
		case in.ConstKind == lang.PDouble:
			// Always with a point or exponent: 0.0 is not the int 0.
			g := strconv.FormatFloat(in.ConstFloat, 'g', -1, 64)
			if !strings.ContainsAny(g, ".eIN") {
				g += ".0"
			}
			b.WriteString(" " + g)
		case in.ConstKind == lang.PBoolean:
			fmt.Fprintf(&b, " %t", in.ConstBool)
		default:
			fmt.Fprintf(&b, " %d", in.ConstInt)
		}
	case OpBin, OpUn:
		fmt.Fprintf(&b, " %q", in.BinOp)
	case OpNew:
		fmt.Fprintf(&b, " %s @%d", in.Class.Name, in.AllocID)
	case OpNewArray:
		fmt.Fprintf(&b, " %s @%d", in.Dst.Type, in.AllocID)
	case OpLoad, OpStore:
		fmt.Fprintf(&b, " .%s", in.Field.Name)
	case OpLoadStatic, OpStoreStatic:
		fmt.Fprintf(&b, " %s.%s", in.Field.Owner.Name, in.Field.Name)
	case OpCall:
		fmt.Fprintf(&b, " %s", in.Callee.QualifiedName())
	case OpRemoteCall:
		fmt.Fprintf(&b, " %s site=%d", in.Callee.QualifiedName(), in.SiteID)
	case OpStrBuiltin:
		fmt.Fprintf(&b, " %s", in.Builtin)
	}
	if len(in.Args) > 0 {
		b.WriteString(" [")
		for i, a := range in.Args {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(a.String())
			if in.Op == OpPhi {
				fmt.Fprintf(&b, " from b%d", in.PhiPreds[i].ID)
			}
		}
		b.WriteString("]")
	}
	if len(in.Targets) > 0 {
		b.WriteString(" ->")
		for _, t := range in.Targets {
			fmt.Fprintf(&b, " b%d", t.ID)
		}
	}
	return b.String()
}
