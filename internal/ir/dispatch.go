package ir

import (
	"slices"

	"cormi/internal/lang"
)

// A remote call dispatches on the receiver's runtime class, which may
// be any subclass of the callee's declaring class: it may run the
// callee or any override of it below that class. (MiniJP has no
// virtual dispatch outside RMI; a local call runs its callee.) Every
// analysis that follows a remote call into a body — the scheduling
// prepass, the heap analysis's bindings, the leaf and escape verdicts —
// asks DispatchTargets, so none of them sees only the static callee.

// DispatchTargets returns the methods a remote call naming md may run:
// md, then every other method that a subclass of md's class resolves
// md's name to, in class declaration order. It is defined for the
// callee of every lowered remote call site; the table is built once,
// when the program is lowered.
func (p *Program) DispatchTargets(md *lang.MethodDecl) []*lang.MethodDecl {
	return p.dispatch[md]
}

// buildDispatch fills the dispatch table for the callees of p's remote
// call sites: one map, and lists carved from one slice that grows only
// past one method per site.
func (p *Program) buildDispatch() {
	p.dispatch = make(map[*lang.MethodDecl][]*lang.MethodDecl, len(p.RemoteSites))
	all := make([]*lang.MethodDecl, 0, len(p.RemoteSites))
	for _, in := range p.RemoteSites {
		if in == nil {
			continue
		}
		md := in.Callee
		if _, ok := p.dispatch[md]; ok {
			continue
		}
		start := len(all)
		all = append(all, md)
		for _, cd := range p.Lang.File.Classes {
			if cd == md.Class || !cd.IsSubclassOf(md.Class) {
				continue
			}
			if m := cd.MethodByName(md.Name); !slices.Contains(all[start:], m) {
				all = append(all, m)
			}
		}
		p.dispatch[md] = all[start:len(all):len(all)]
	}
}
