// Package core is the paper's primary contribution: the optimizing RMI
// compiler pass. It drives the pipeline
//
//	MiniJP source → checked AST → SSA IR → heap analysis (§2)
//
// and then derives, for every remote call site:
//
//   - a call-site-specific serialization plan per argument and return
//     value (§3.1) with inlined field operations and no per-object type
//     information for statically known referents;
//   - whether cycle detection can be eliminated (§3.2), by traversing
//     the argument heap graphs and flagging any allocation number seen
//     twice;
//   - whether the argument and return object graphs may be reused
//     across invocations (§3.3), by an RMI-specific escape analysis
//     over the cloned (callee-side) subgraphs;
//   - whether the return value is ignored at the call site, enabling
//     the ack-only reply optimization (§3.1).
//
// The output plugs directly into the runtime: serial.Plan objects plus
// model.Class definitions registered in a model.Registry.
package core

import (
	"fmt"

	"cormi/internal/heap"
	"cormi/internal/ir"
	"cormi/internal/lang"
	"cormi/internal/model"
	"cormi/internal/serial"
)

// SiteInfo carries everything the compiler derived about one remote
// call site.
type SiteInfo struct {
	SiteID int
	// Name is the mangled call-site name: containing function plus a
	// per-function sequence number, e.g. "Work.go.2" (§3.1 "function
	// names are mangled with the containing function name and a
	// sequence number").
	Name   string
	Callee *lang.MethodDecl
	Site   *ir.Instr // nil when the call site is unreachable code
	Dead   bool

	// MayCycle is the §3.2 verdict over all serialized arguments.
	MayCycle bool
	// IgnoreRet marks call sites whose result is unused (§3.1 ack
	// optimization).
	IgnoreRet bool
	// NumRet is 0 for void callees, 1 otherwise.
	NumRet int
	// Leaf marks call sites no method of which, by any dispatch the
	// receiver allows, reaches a remote call (leaf.go): the runtime
	// may run them on the callee's receive loop.
	Leaf bool

	// ArgPlans has one plan per serialized argument (the remote
	// receiver is a reference, not an argument). RetPlans has one plan
	// per return value.
	ArgPlans []*serial.Plan
	RetPlans []*serial.Plan

	// ArgReusable and RetReusable are the §3.3 escape-analysis
	// verdicts (also baked into the plans' Reusable flags).
	ArgReusable []bool
	RetReusable bool
	// RetMayCycle is the cycle verdict for the returned graph.
	RetMayCycle bool

	// Audit provenance (the explain layer renders these):
	// CycleWitness/RetCycleWitness hold the §3.2 denial evidence when
	// the cycle table is kept (nil when elided); ArgReuseDenied (one
	// entry per serialized argument, nil where reuse applies or the
	// argument is primitive) and RetReuseDenied hold the §3.3 escape
	// witnesses; ArgNodes/RetNodes are the heap allocation-site sets
	// each plan was derived from.
	CycleWitness    *heap.CycleWitness
	RetCycleWitness *heap.CycleWitness
	ArgReuseDenied  []*EscapeWitness
	RetReuseDenied  *EscapeWitness
	ArgNodes        []heap.NodeSet
	RetNodes        heap.NodeSet
	// LinearRefined marks verdicts cleared by the opt-in linear-list
	// refinement rather than the base §3.2 traversal.
	LinearRefined bool
}

// Options selects optional compiler behaviors.
type Options struct {
	// LinearListRefinement enables the future-work refinement the
	// paper's conclusions describe: constructor-ordered linear chain
	// classes (linked lists) are recognized as cycle-free when they
	// are a message's only reference argument. See linear.go for the
	// soundness argument.
	LinearListRefinement bool

	// HeapOpts overrides the heap-analysis precision (nil means
	// heap.DefaultOptions: 1-call-site-sensitive with strong updates).
	// The verdict-matrix baseline compiles with the zero heap.Options
	// to quantify the precision gap.
	HeapOpts *heap.Options
}

func (o Options) heapOpts() heap.Options {
	if o.HeapOpts != nil {
		return *o.HeapOpts
	}
	return heap.DefaultOptions()
}

// Result is a compiled program with analysis results.
type Result struct {
	Lang     *lang.Program
	IR       *ir.Program
	Heap     *heap.Analysis
	Registry *model.Registry
	Sites    []*SiteInfo
	Opts     Options

	classOf map[*lang.ClassDecl]*model.Class
}

// Compile runs the full pipeline over src with a fresh class registry.
func Compile(src string) (*Result, error) {
	return CompileInto(src, model.NewRegistry())
}

// CompileInto runs the pipeline, registering runtime classes into reg
// (typically the registry shared with an rmi.Cluster).
func CompileInto(src string, reg *model.Registry) (*Result, error) {
	return CompileOpts(src, reg, Options{})
}

// CompileOpts is CompileInto with explicit compiler options.
func CompileOpts(src string, reg *model.Registry, opts Options) (*Result, error) {
	file, err := lang.Parse(src)
	if err != nil {
		return nil, fmt.Errorf("parse: %w", err)
	}
	prog, err := lang.Check(file)
	if err != nil {
		return nil, fmt.Errorf("check: %w", err)
	}
	irProg, err := ir.Lower(prog)
	if err != nil {
		return nil, fmt.Errorf("lower: %w", err)
	}
	if err := ir.Validate(irProg); err != nil {
		return nil, fmt.Errorf("ssa validation: %w", err)
	}
	r := &Result{
		Lang:     prog,
		IR:       irProg,
		Heap:     heap.AnalyzeOpts(irProg, opts.heapOpts()),
		Registry: reg,
		Opts:     opts,
		classOf:  make(map[*lang.ClassDecl]*model.Class),
	}
	if err := r.defineModelClasses(); err != nil {
		return nil, err
	}
	if err := r.buildSites(); err != nil {
		return nil, err
	}
	return r, nil
}

// SiteByName finds a call site by its mangled name.
func (r *Result) SiteByName(name string) *SiteInfo {
	for _, s := range r.Sites {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// SitesOfCallee lists the call sites targeting a given method, in
// program order.
func (r *Result) SitesOfCallee(qualified string) []*SiteInfo {
	var out []*SiteInfo
	for _, s := range r.Sites {
		if s.Callee != nil && s.Callee.QualifiedName() == qualified {
			out = append(out, s)
		}
	}
	return out
}

// ModelClass returns the runtime class for a declared class name.
func (r *Result) ModelClass(name string) (*model.Class, bool) {
	cd, ok := r.Lang.Classes[name]
	if !ok {
		return nil, false
	}
	mc, ok := r.classOf[cd]
	return mc, ok
}
