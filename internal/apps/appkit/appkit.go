// Package appkit bridges the compiler's per-call-site analysis results
// (core.SiteInfo) to the RMI runtime (rmi.CallSite): each benchmark
// application compiles its MiniJP communication sketch, then registers
// the derived plans as runtime call sites under the optimization level
// being measured.
package appkit

import (
	"fmt"

	"cormi/internal/core"
	"cormi/internal/rmi"
	"cormi/internal/simtime"
	"cormi/internal/stats"
)

// RunResult is one benchmark execution's outcome: the virtual makespan
// plus the runtime statistics the paper's tables report.
type RunResult struct {
	Seconds float64
	Stats   stats.Snapshot
}

// Collect snapshots a cluster into a RunResult.
func Collect(c *rmi.Cluster) RunResult {
	return RunResult{
		Seconds: simtime.Seconds(c.MaxTime()),
		Stats:   c.Counters.Snapshot(),
	}
}

// SpecOf converts a compiled call site to a runtime site spec.
func SpecOf(si *core.SiteInfo) rmi.SiteSpec {
	return rmi.SiteSpec{
		Name:      si.Name,
		Method:    si.Callee.Name,
		ArgPlans:  si.ArgPlans,
		RetPlans:  si.RetPlans,
		NumRet:    si.NumRet,
		IgnoreRet: si.IgnoreRet,
		Leaf:      si.Leaf,
	}
}

// Register registers a compiled call site on the cluster under the
// given optimization level.
func Register(c *rmi.Cluster, level rmi.OptLevel, si *core.SiteInfo) (*rmi.CallSite, error) {
	if si == nil {
		return nil, fmt.Errorf("appkit: nil call site")
	}
	if si.Dead {
		return nil, fmt.Errorf("appkit: call site %s is dead code", si.Name)
	}
	return c.NewCallSite(level, SpecOf(si))
}

// SoleSite returns the unique call site of a callee, failing loudly if
// the sketch has zero or several.
func SoleSite(r *core.Result, qualified string) (*core.SiteInfo, error) {
	sites := r.SitesOfCallee(qualified)
	if len(sites) != 1 {
		return nil, fmt.Errorf("appkit: %d call sites for %s, want 1", len(sites), qualified)
	}
	return sites[0], nil
}
