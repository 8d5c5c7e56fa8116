package serial

import (
	"fmt"
	"strings"

	"cormi/internal/model"
)

// Plan is the call-site-specific serialization recipe for one RMI
// argument or return value, produced by the compiler (internal/core)
// from the heap graph of that call site. It is the runtime form of the
// generated marshaler bodies of Figures 6 and 13.
type Plan struct {
	// Site names the call site, e.g. "Work.go.1".
	Site string
	// Kind is the value kind of this argument (FInt, FDouble, FBool,
	// FString or FRef).
	Kind model.FieldKind
	// Root is the statically inferred object plan for FRef arguments;
	// nil means the reference is polymorphic and falls back to dynamic
	// (class mode) serialization.
	Root *NodePlan
	// NeedCycle records whether the heap analysis found the argument
	// graph potentially cyclic (§3.2). When false and cycle
	// elimination is enabled, no cycle table is created.
	NeedCycle bool
	// Reusable records whether escape analysis proved the argument
	// does not escape the remote method (§3.3), enabling object reuse.
	Reusable bool
}

// PrimitivePlan builds the trivial plan for a non-reference argument.
func PrimitivePlan(site string, kind model.FieldKind) *Plan {
	return &Plan{Site: site, Kind: kind}
}

// NodePlan describes how to serialize one object whose exact class is
// known at compile time.
type NodePlan struct {
	Class *model.Class
	// Steps lists the field operations for KObject classes, in layout
	// order.
	Steps []Step
	// Elem is the element plan for KRefArray classes; nil means
	// elements are serialized dynamically.
	Elem *NodePlan
}

// StepOp is a field-serialization operation.
type StepOp uint8

const (
	// OpInt inlines an int field copy.
	OpInt StepOp = iota
	// OpDouble inlines a double field copy.
	OpDouble
	// OpBool inlines a boolean field copy.
	OpBool
	// OpString inlines a String field copy.
	OpString
	// OpRef serializes a reference field whose target class is known
	// (Target), without type information and without a dynamic
	// serializer invocation.
	OpRef
	// OpRefDynamic serializes a polymorphic reference field through
	// the dynamic (class mode) path.
	OpRefDynamic
)

// Step is one operation of a NodePlan.
type Step struct {
	Op        StepOp
	Field     int    // index into the flattened field layout
	FieldName string // for pseudocode rendering
	Target    *NodePlan
}

// Validate checks internal consistency of the plan (step indices in
// range, operations matching field kinds).
func (p *Plan) Validate() error {
	if p == nil {
		return fmt.Errorf("serial: nil plan")
	}
	if p.Kind != model.FRef {
		if p.Root != nil {
			return fmt.Errorf("serial: plan %s: primitive kind with object plan", p.Site)
		}
		return nil
	}
	seen := map[*NodePlan]bool{}
	var check func(np *NodePlan) error
	check = func(np *NodePlan) error {
		if np == nil || seen[np] {
			return nil
		}
		seen[np] = true
		if np.Class == nil {
			return fmt.Errorf("serial: plan %s: node plan without class", p.Site)
		}
		switch np.Class.Kind {
		case model.KObject:
			fields := np.Class.AllFields()
			for _, s := range np.Steps {
				if s.Field < 0 || s.Field >= len(fields) {
					return fmt.Errorf("serial: plan %s: step field %d out of range for %s", p.Site, s.Field, np.Class.Name)
				}
				f := fields[s.Field]
				want := map[StepOp]model.FieldKind{
					OpInt: model.FInt, OpDouble: model.FDouble,
					OpBool: model.FBool, OpString: model.FString,
					OpRef: model.FRef, OpRefDynamic: model.FRef,
				}[s.Op]
				if f.Kind != want {
					return fmt.Errorf("serial: plan %s: step op %d on %s.%s (kind %v)", p.Site, s.Op, np.Class.Name, f.Name, f.Kind)
				}
				if s.Op == OpRef {
					if s.Target == nil {
						return fmt.Errorf("serial: plan %s: OpRef without target on %s.%s", p.Site, np.Class.Name, f.Name)
					}
					if err := check(s.Target); err != nil {
						return err
					}
				}
			}
		case model.KRefArray:
			if np.Elem != nil {
				if err := check(np.Elem); err != nil {
					return err
				}
			}
		}
		return nil
	}
	return check(p.Root)
}

// Pseudocode renders the plan as generated-marshaler pseudocode in the
// style of the paper's Figures 6 and 13, for the rmic -dump-code tool.
func (p *Plan) Pseudocode() string {
	var b strings.Builder
	fmt.Fprintf(&b, "// call-site-specific marshaler (cycle table: %v, reuse: %v)\n", p.NeedCycle, p.Reusable)
	fmt.Fprintf(&b, "void marshaler_%s(%s s) {\n", p.Site, planTypeName(p))
	fmt.Fprintf(&b, "    Message m = new Message();\n")
	if p.NeedCycle {
		fmt.Fprintf(&b, "    CycleTable tbl = new CycleTable();\n")
	}
	emitted := map[*NodePlan]bool{}
	emitNode(&b, p.Root, "s", 1, emitted, p.NeedCycle)
	if p.Kind != model.FRef {
		fmt.Fprintf(&b, "    m.append_%s(s);\n", kindName(p.Kind))
	}
	fmt.Fprintf(&b, "    m.send();\n    delete m;\n    wait_for_return_value();\n}\n")
	return b.String()
}

func planTypeName(p *Plan) string {
	if p.Kind != model.FRef {
		return kindName(p.Kind)
	}
	if p.Root == nil {
		return "Object"
	}
	return p.Root.Class.Name
}

func kindName(k model.FieldKind) string {
	switch k {
	case model.FInt:
		return "int"
	case model.FDouble:
		return "double"
	case model.FBool:
		return "boolean"
	case model.FString:
		return "String"
	default:
		return "Object"
	}
}

func emitNode(b *strings.Builder, np *NodePlan, expr string, depth int, emitted map[*NodePlan]bool, cyc bool) {
	ind := strings.Repeat("    ", depth)
	if np == nil {
		fmt.Fprintf(b, "%sserialize_dynamic(m, %s); // polymorphic: class-specific path\n", ind, expr)
		return
	}
	if cyc {
		fmt.Fprintf(b, "%sif (tbl.seen(%s)) { m.append_handle(%s); } else {\n", ind, expr, expr)
		ind += "    "
		depth++
	}
	if emitted[np] {
		fmt.Fprintf(b, "%sserialize_%s(m, %s); // recursive structure, shared body\n", ind, sanit(np.Class.Name), expr)
	} else {
		emitted[np] = true
		switch np.Class.Kind {
		case model.KObject:
			for _, s := range np.Steps {
				f := np.Class.AllFields()[s.Field]
				switch s.Op {
				case OpInt, OpDouble, OpBool, OpString:
					fmt.Fprintf(b, "%sm.append_%s(%s.%s); // inlined\n", ind, kindName(f.Kind), expr, f.Name)
				case OpRef:
					emitNode(b, s.Target, expr+"."+f.Name, depth, emitted, cyc)
				case OpRefDynamic:
					fmt.Fprintf(b, "%sserialize_dynamic(m, %s.%s); // polymorphic field\n", ind, expr, f.Name)
				}
			}
		case model.KDoubleArray:
			fmt.Fprintf(b, "%sm.append_int(%s.length);\n%sm.append_double_array(%s); // bulk copy, no type info\n", ind, expr, ind, expr)
		case model.KIntArray:
			fmt.Fprintf(b, "%sm.append_int(%s.length);\n%sm.append_int_array(%s);\n", ind, expr, ind, expr)
		case model.KRefArray:
			fmt.Fprintf(b, "%sm.append_int(%s.length);\n", ind, expr)
			fmt.Fprintf(b, "%sfor (int i = 0; i < %s.length; i++) {\n", ind, expr)
			emitNode(b, np.Elem, expr+"[i]", depth+1, emitted, cyc)
			fmt.Fprintf(b, "%s}\n", ind)
		}
	}
	if cyc {
		fmt.Fprintf(b, "%s}\n", strings.Repeat("    ", depth-1))
	}
}

func sanit(s string) string {
	return strings.NewReplacer("[", "_", "]", "_", ".", "_").Replace(s)
}
