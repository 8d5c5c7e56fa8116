package ir

import "fmt"

// Validate checks the SSA invariants of every function in the program:
// single assignment, definitions dominating uses (phi uses checked at
// the matching predecessor), terminated blocks, consistent CFG edges
// and well-formed phis.
func Validate(p *Program) error {
	var v validator
	for _, f := range p.Funcs {
		if err := v.validate(f); err != nil {
			return fmt.Errorf("%s: %w", f.Name, err)
		}
	}
	return nil
}

// validator holds the per-function tables of the check, indexed by
// Block.ID and Value.ID and reused from one function to the next.
type validator struct {
	dom      domTree
	defBlock []*Block // defining block of each value; nil: not defined
}

// termTargets is the number of targets (and successors) each
// terminator has.
func termTargets(op Op) int {
	switch op {
	case OpJump:
		return 1
	case OpBranch:
		return 2
	}
	return 0
}

// define records b as the block that defines val.
func (v *validator) define(val *Value, b *Block) error {
	if val.ID < 0 || val.ID >= len(v.defBlock) {
		return fmt.Errorf("value %s is not one of the function's", val)
	}
	if v.defBlock[val.ID] != nil {
		return fmt.Errorf("value %s assigned twice", val)
	}
	v.defBlock[val.ID] = b
	return nil
}

func (v *validator) validate(f *Func) error {
	if len(f.Blocks) == 0 {
		return fmt.Errorf("no blocks")
	}
	// The tables below are indexed by Block.ID and Value.ID, so the
	// numbering is checked before anything is looked up.
	owns := func(b *Block) bool { return b.ID >= 0 && b.ID < len(f.Blocks) && f.Blocks[b.ID] == b }
	for i, b := range f.Blocks {
		if b.ID != i {
			return fmt.Errorf("block %d: listed at position %d", b.ID, i)
		}
		for _, e := range b.Succs {
			if !owns(e) {
				return fmt.Errorf("block %d: successor outside the function", b.ID)
			}
		}
		for _, e := range b.Preds {
			if !owns(e) {
				return fmt.Errorf("block %d: predecessor outside the function", b.ID)
			}
		}
	}
	v.dom.compute(f)
	reachable := v.dom.reachable

	v.defBlock = append(v.defBlock[:0], make([]*Block, f.nextValue)...)
	defBlock := func(val *Value) *Block {
		if val.ID < 0 || val.ID >= len(v.defBlock) {
			return nil
		}
		return v.defBlock[val.ID]
	}
	for _, prm := range f.Params {
		if err := v.define(prm, f.Entry()); err != nil {
			return err
		}
	}
	for _, b := range f.Blocks {
		for i, in := range b.Instrs {
			if in.Block != b {
				return fmt.Errorf("block %d: instruction has wrong block pointer", b.ID)
			}
			if in.Dst != nil {
				if err := v.define(in.Dst, b); err != nil {
					return fmt.Errorf("block %d: %w", b.ID, err)
				}
				if in.Dst.Def != in {
					return fmt.Errorf("block %d: %s has stale Def", b.ID, in.Dst)
				}
			}
			if in.Op == OpPhi {
				if len(in.Args) != len(in.PhiPreds) {
					return fmt.Errorf("block %d: phi arity mismatch", b.ID)
				}
				if len(in.Args) != len(b.Preds) {
					return fmt.Errorf("block %d: phi has %d operands for %d preds", b.ID, len(in.Args), len(b.Preds))
				}
				for _, pred := range in.PhiPreds {
					if !owns(pred) {
						return fmt.Errorf("block %d: phi predecessor outside the function", b.ID)
					}
				}
				// Phis must lead the block.
				if i > 0 && b.Instrs[i-1].Op != OpPhi {
					return fmt.Errorf("block %d: phi after non-phi", b.ID)
				}
			}
			if t := in.Op; (t == OpJump || t == OpBranch || t == OpRet) && i != len(b.Instrs)-1 {
				return fmt.Errorf("block %d: terminator mid-block", b.ID)
			}
		}
		if reachable(b) && b.Terminator() == nil {
			return fmt.Errorf("block %d: missing terminator", b.ID)
		}
		// CFG consistency.
		if t := b.Terminator(); t != nil {
			want := termTargets(t.Op)
			if len(t.Targets) != want {
				return fmt.Errorf("block %d: %v with %d targets", b.ID, t.Op, len(t.Targets))
			}
			if len(b.Succs) != want {
				return fmt.Errorf("block %d: %d successors for %v", b.ID, len(b.Succs), t.Op)
			}
			for i, s := range b.Succs {
				if t.Targets[i] != s {
					return fmt.Errorf("block %d: successor %d mismatch", b.ID, i)
				}
				found := false
				for _, pp := range s.Preds {
					if pp == b {
						found = true
					}
				}
				if !found {
					return fmt.Errorf("block %d: successor %d missing back edge", b.ID, i)
				}
			}
		}
	}

	// Dominance of uses.
	for _, b := range f.Blocks {
		if !reachable(b) {
			continue
		}
		for _, in := range b.Instrs {
			for ai, a := range in.Args {
				db := defBlock(a)
				if db == nil {
					return fmt.Errorf("block %d: use of undefined value %s", b.ID, a)
				}
				if !reachable(db) {
					continue
				}
				if in.Op == OpPhi {
					pred := in.PhiPreds[ai]
					if reachable(pred) && !v.dom.dominates(db, pred) {
						return fmt.Errorf("block %d: phi operand %s not dominated via pred %d", b.ID, a, pred.ID)
					}
					continue
				}
				if db == b {
					continue // same-block ordering is by construction
				}
				if !v.dom.dominates(db, b) {
					return fmt.Errorf("block %d: use of %s not dominated by def in block %d", b.ID, a, db.ID)
				}
			}
		}
	}
	return nil
}

// IgnoredReturn reports whether a remote call's result is unused
// (dead), enabling the §3.1 ack-only optimization at that site.
func IgnoredReturn(site *Instr) bool {
	if site.Dst == nil {
		return true
	}
	return len(site.Dst.Uses) == 0
}

// ReturnValues lists the values f returns, one per returning block in
// block order. Lower collects them once; the slice is the function's
// own and must not be modified.
func ReturnValues(f *Func) []*Value { return f.rets }
