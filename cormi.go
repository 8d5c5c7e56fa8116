// Package cormi (Compiler Optimized RMI) is the public face of this
// reproduction of Veldema & Philippsen, "Compiler Optimized Remote
// Method Invocation" (CLUSTER 2003). It ties together:
//
//   - the optimizing RMI compiler: MiniJP source in, per-call-site
//     serialization plans plus cycle-elimination and reuse verdicts out
//     (Compile);
//   - the RMI runtime: clusters of nodes with per-call-site stubs,
//     virtual-time clocks and runtime statistics (NewCluster,
//     Program.Register);
//   - the five optimization levels the paper evaluates (LevelClass …
//     LevelSiteReuseCycle).
//
// A minimal end-to-end use:
//
//	prog, _ := cormi.Compile(src)                  // run the compiler
//	c := cormi.NewCluster(2, cormi.WithRegistry(prog.Registry))
//	defer c.Close()
//	site, _ := prog.Register(c, cormi.LevelSiteReuseCycle, "Main.go.1")
//	ref := c.Node(1).Export(service)
//	rets, _ := site.Invoke(c.Node(0), ref, args)
//
// Invoke's first argument is where the call comes from: a *Node for a
// root call, or, inside a remote method, that method's *Call, so the
// nested call joins the enclosing call's distributed trace. A method
// reached through a site the compiler judged a leaf (its sketch body
// reaches no remote call) runs on the callee's receive loop, and may
// issue no call at all (rmi.Method).
//
// See examples/ for runnable programs and internal/harness for the
// regeneration of the paper's Tables 1–8.
package cormi

import (
	"fmt"

	"cormi/internal/apps/appkit"
	"cormi/internal/core"
	"cormi/internal/interp"
	"cormi/internal/model"
	"cormi/internal/rmi"
	"cormi/internal/transport"
)

// OptLevel names one of the paper's five optimization configurations.
type OptLevel = rmi.OptLevel

// The five configurations of the paper's tables.
const (
	LevelClass          = rmi.LevelClass
	LevelSite           = rmi.LevelSite
	LevelSiteCycle      = rmi.LevelSiteCycle
	LevelSiteReuse      = rmi.LevelSiteReuse
	LevelSiteReuseCycle = rmi.LevelSiteReuseCycle
)

// AllLevels lists the configurations in table order.
var AllLevels = rmi.AllLevels

// Runtime types re-exported from the internal runtime.
type (
	// Cluster is a set of RMI nodes sharing a transport and registry.
	Cluster = rmi.Cluster
	// Node is one machine of a cluster.
	Node = rmi.Node
	// Service is a remotely invokable method table.
	Service = rmi.Service
	// Method is one remotely invokable method implementation.
	Method = rmi.Method
	// Call is the per-invocation context passed to methods; a method
	// issues nested calls from it (CallSite.Invoke(call, ...)).
	Call = rmi.Call
	// Ref identifies an exported remote object.
	Ref = rmi.Ref
	// CallSite is a registered per-call-site stub.
	CallSite = rmi.CallSite
	// Option configures NewCluster.
	Option = rmi.Option
	// CallPolicy is a per-call deadline/retry policy.
	CallPolicy = rmi.CallPolicy

	// FaultConfig configures seeded fault injection (chaos mode).
	FaultConfig = transport.FaultConfig
	// FaultRates holds per-link fault probabilities.
	FaultRates = transport.FaultRates
	// FaultyNetwork is a fault-injecting network decorator; obtain the
	// cluster's instance via Cluster.Network() to partition/heal links.
	FaultyNetwork = transport.FaultyNetwork

	// Value is a runtime value (primitive, string or object graph).
	Value = model.Value
	// Object is a heap object with identity semantics.
	Object = model.Object
	// Class is a runtime class descriptor.
	Class = model.Class
	// Registry resolves classes during deserialization.
	Registry = model.Registry
)

// Value constructors.
var (
	Int    = model.Int
	Double = model.Double
	Bool   = model.Bool
	Str    = model.Str
	Null   = model.Null
	RefVal = model.Ref
)

// Object constructors.
var (
	// NewObject allocates a zeroed instance of an object class.
	NewObject = model.New
	// NewArray allocates an array object of the given length.
	NewArray = model.NewArray
)

// Cluster options.
var (
	WithNetwork    = rmi.WithNetwork
	WithRegistry   = rmi.WithRegistry
	WithCallPolicy = rmi.WithCallPolicy
	WithFaults     = rmi.WithFaults
)

// Failure sentinels of the fault-tolerant call path; test with
// errors.Is.
var (
	// ErrTimeout: the call's deadline and retry budget were exhausted.
	ErrTimeout = rmi.ErrTimeout
	// ErrPartitioned: the deadline expired across a known partition.
	ErrPartitioned = rmi.ErrPartitioned
	// ErrPlanMismatch: the callee's node runs other plans (another
	// program), so the link refuses the call.
	ErrPlanMismatch = rmi.ErrPlanMismatch
	// ErrClusterClosed: the cluster shut down while the call was pending.
	ErrClusterClosed = rmi.ErrClusterClosed
)

// NewCluster starts an n-node cluster (in-process network by default).
func NewCluster(n int, opts ...Option) *Cluster { return rmi.New(n, opts...) }

// Program is a compiled MiniJP program: analysis results plus the
// runtime classes it registered.
type Program struct {
	res *core.Result
}

// Compile runs the optimizing compiler over MiniJP source.
func Compile(src string) (*Program, error) {
	res, err := core.Compile(src)
	if err != nil {
		return nil, err
	}
	return &Program{res: res}, nil
}

// Registry exposes the runtime classes the compiler registered.
func (p *Program) Registry() *Registry { return p.res.Registry }

// Class looks up a runtime class by MiniJP class name.
func (p *Program) Class(name string) (*Class, bool) { return p.res.ModelClass(name) }

// SiteNames lists the mangled names of all live remote call sites.
func (p *Program) SiteNames() []string {
	var out []string
	for _, s := range p.res.Sites {
		if !s.Dead {
			out = append(out, s.Name)
		}
	}
	return out
}

// Register installs the named call site on a cluster under the given
// optimization level and returns the runtime stub.
func (p *Program) Register(c *Cluster, level OptLevel, siteName string) (*CallSite, error) {
	si := p.res.SiteByName(siteName)
	if si == nil {
		return nil, fmt.Errorf("cormi: no call site %q (have %v)", siteName, p.SiteNames())
	}
	return appkit.Register(c, level, si)
}

// DumpSite renders the compiler's analysis and generated-marshaler
// pseudocode for one call site (Figures 6/13 style).
func (p *Program) DumpSite(siteName string) (string, error) {
	si := p.res.SiteByName(siteName)
	if si == nil {
		return "", fmt.Errorf("cormi: no call site %q", siteName)
	}
	return p.res.DumpSite(si), nil
}

// Run interprets the program's `class.main()` on the cluster: remote
// instances are placed round robin over the nodes and every remote
// call goes through the serializers compiled for its call site. The
// cluster must share the program's registry.
func (p *Program) Run(c *Cluster, level OptLevel, class string) (Value, error) {
	m, err := interp.New(p.res, c, level)
	if err != nil {
		return Value{}, err
	}
	return m.RunMain(class)
}
