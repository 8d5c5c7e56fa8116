// Package interp executes compiled MiniJP programs on the RMI
// cluster, completing the Manta-JavaParty reproduction: the same
// program that the optimizing compiler analyzed actually *runs*
// distributed — `new RemoteClass()` places instances round-robin over
// the nodes, every remote call site goes through the runtime stub
// built from its compiled serialization plans, and remote method
// bodies execute on the owning node (advancing that node's virtual
// clock).
//
// The interpreter works directly on the SSA IR, which doubles as a
// semantic check of the lowering (the benchmark tables never execute
// MiniJP; the examples and tests here do).
//
// Known deviations from full JavaParty, documented here once:
//   - static fields live in one machine-wide table (a single logical
//     JVM image) rather than on a home node;
//   - remote references can be held in locals and passed to *local*
//     calls, but not serialized as RMI arguments or stored into object
//     fields (our wire format has no stub encoding).
package interp

import (
	"fmt"
	"hash/fnv"
	"sync"

	"cormi/internal/apps/appkit"
	"cormi/internal/core"
	"cormi/internal/lang"
	"cormi/internal/model"
	"cormi/internal/rmi"
)

// value is an interpreter value: either a plain runtime value or a
// remote reference.
type value struct {
	v model.Value
	r *remoteRef
}

type remoteRef struct {
	ref   rmi.Ref
	class *lang.ClassDecl
}

func plain(v model.Value) value { return value{v: v} }

// Machine runs one compiled program on one cluster.
type Machine struct {
	res     *core.Result
	cluster *rmi.Cluster
	level   rmi.OptLevel

	sites []*rmi.CallSite // indexed by SiteID; nil for dead sites

	staticMu sync.Mutex
	statics  map[*lang.FieldDecl]value

	placeMu  sync.Mutex
	nextTurn int

	// OnRemoteArgs and OnRemoteRet, when non-nil, observe every remote
	// invocation the interpreter performs: the serialized argument
	// values just before the call-site stub runs, and the returned
	// value just after. The soundness fuzzer uses them to check the
	// compiler's static verdicts (e.g. proved-acyclic argument graphs)
	// against the concrete object graphs that actually cross the wire.
	// Hooks run on the caller's goroutine; they must not mutate the
	// values.
	OnRemoteArgs func(siteID int, args []model.Value)
	OnRemoteRet  func(siteID int, ret model.Value)
}

// New prepares a machine: it registers every live remote call site of
// the compiled program on the cluster at the given optimization level.
// The cluster must share the compile's registry.
func New(res *core.Result, cluster *rmi.Cluster, level rmi.OptLevel) (*Machine, error) {
	m := &Machine{
		res:     res,
		cluster: cluster,
		level:   level,
		sites:   make([]*rmi.CallSite, len(res.Sites)),
		statics: make(map[*lang.FieldDecl]value),
	}
	for i, si := range res.Sites {
		if si.Dead {
			continue
		}
		cs, err := appkit.Register(cluster, level, si)
		if err != nil {
			return nil, err
		}
		m.sites[i] = cs
	}
	return m, nil
}

// RunMain interprets the static, parameterless method main of the
// named class on node 0 and returns its value (zero Value for void).
func (m *Machine) RunMain(class string) (model.Value, error) {
	cd, ok := m.res.Lang.Classes[class]
	if !ok {
		return model.Value{}, fmt.Errorf("interp: no class %s", class)
	}
	md := cd.MethodByName("main")
	if md == nil || !md.Static || len(md.Params) != 0 {
		return model.Value{}, fmt.Errorf("interp: %s has no static main()", class)
	}
	v, err := m.callDirect(m.cluster.Node(0), md, nil)
	if err != nil {
		return model.Value{}, err
	}
	return v.v, nil
}

// placeRemote allocates a remote instance on the next node round
// robin, exporting an interpreter-backed service for it.
func (m *Machine) placeRemote(cd *lang.ClassDecl) (*remoteRef, error) {
	m.placeMu.Lock()
	node := m.cluster.Node(m.nextTurn % m.cluster.Size())
	m.nextTurn++
	m.placeMu.Unlock()

	mc, ok := m.res.ModelClass(cd.Name)
	if !ok {
		return nil, fmt.Errorf("interp: no model class for %s", cd.Name)
	}
	self := model.New(mc) // the remote instance's field storage
	methods := make(map[string]rmi.Method)
	for c := cd; c != nil; c = c.Super {
		for _, md := range c.Methods {
			md := md
			if md.IsCtor || md.Static || md.Body == nil {
				continue
			}
			if _, dup := methods[md.Name]; dup {
				continue
			}
			methods[md.Name] = func(call *rmi.Call, args []model.Value) []model.Value {
				vals := make([]value, 0, len(args)+1)
				vals = append(vals, plain(model.Ref(self)))
				for _, a := range args {
					vals = append(vals, plain(a))
				}
				ret, err := m.exec(call, m.res.IR.FuncOf[md], vals)
				if err != nil {
					panic(fmt.Sprintf("interp: %s: %v", md.QualifiedName(), err))
				}
				if lang.TypeEq(md.Ret, lang.VoidType) {
					return nil
				}
				return []model.Value{ret.v}
			}
		}
	}
	ref := node.Export(&rmi.Service{Name: cd.Name, Methods: methods})
	return &remoteRef{ref: ref, class: cd}, nil
}

// callDirect interprets a (static or local) method for from.
func (m *Machine) callDirect(from rmi.Caller, md *lang.MethodDecl, args []value) (value, error) {
	fn, ok := m.res.IR.FuncOf[md]
	if !ok {
		return value{}, fmt.Errorf("interp: %s has no body", md.QualifiedName())
	}
	return m.exec(from, fn, args)
}

// hashString reproduces the deterministic String.hashCode builtin.
func hashString(s string) int64 {
	h := fnv.New32a()
	h.Write([]byte(s))
	return int64(int32(h.Sum32()))
}
