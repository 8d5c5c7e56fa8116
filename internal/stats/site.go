package stats

import "sync/atomic"

// SiteCounters accumulates runtime events for ONE call site, keyed by
// the compiler's Plan.Site id. All fields are atomic: the hot path
// only ever does a handful of uncontended atomic adds, so keeping
// these always-on costs no allocations and stays inside the perf
// budget. A SiteCounters value must not be copied after first use.
type SiteCounters struct {
	Calls              atomic.Int64 // invocations through this site (local + remote)
	LocalCalls         atomic.Int64 // invocations served node-locally
	WireBytes          atomic.Int64 // payload bytes this site put on the wire (calls + replies)
	ReuseHits          atomic.Int64 // reuse-cache Take() that returned a donor graph
	ReuseMisses        atomic.Int64 // reuse-cache Take() that found the cache empty
	CycleTablesAvoided atomic.Int64 // messages sent without a cycle table thanks to §3.2
	ClaimChecks        atomic.Int64 // sampled claim re-verifications at this site
	ClaimViolations    atomic.Int64 // compile-time claims found violated at this site
}

// SiteStat is an immutable snapshot of one site's counters. The obs
// server exports each counter field as a cormi_site_<snake_case name>
// series.
type SiteStat struct {
	Site               string
	Calls              int64
	LocalCalls         int64
	WireBytes          int64
	ReuseHits          int64
	ReuseMisses        int64
	CycleTablesAvoided int64
	ClaimChecks        int64
	ClaimViolations    int64
}

// Snapshot copies the current values under the given site name.
func (c *SiteCounters) Snapshot(site string) SiteStat {
	return SiteStat{
		Site:               site,
		Calls:              c.Calls.Load(),
		LocalCalls:         c.LocalCalls.Load(),
		WireBytes:          c.WireBytes.Load(),
		ReuseHits:          c.ReuseHits.Load(),
		ReuseMisses:        c.ReuseMisses.Load(),
		CycleTablesAvoided: c.CycleTablesAvoided.Load(),
		ClaimChecks:        c.ClaimChecks.Load(),
		ClaimViolations:    c.ClaimViolations.Load(),
	}
}

// Add returns the field-wise sum of two snapshots, keeping the
// receiver's site name. It sums a site's per-node shards, and the
// sites of one cluster that share a name (one textual call site
// registered at several optimization levels).
func (s SiteStat) Add(o SiteStat) SiteStat {
	s.Calls += o.Calls
	s.LocalCalls += o.LocalCalls
	s.WireBytes += o.WireBytes
	s.ReuseHits += o.ReuseHits
	s.ReuseMisses += o.ReuseMisses
	s.CycleTablesAvoided += o.CycleTablesAvoided
	s.ClaimChecks += o.ClaimChecks
	s.ClaimViolations += o.ClaimViolations
	return s
}
