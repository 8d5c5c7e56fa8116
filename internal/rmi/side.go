package rmi

import (
	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/simtime"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// side is one direction of a call site — the arguments (caller writes,
// callee reads) or the return values (callee writes, caller reads):
// the plans the compiler generated for it and its reuse state. Local
// calls run both halves of each side on one node.
type side struct {
	cfg   serial.Config
	plans []*serial.Plan

	// caches are per node: the callee-side argument cache lives on
	// whichever node serves the call, the caller-side return cache on
	// whichever node issued it (the paper's static temp_arr is per-JVM
	// state).
	caches []serial.ReuseCache

	// scratch marks the value slice itself as recyclable through the
	// reuse cache. That is sound only when EVERY value is a reference
	// covered by a §3.3 escape proof: such a slice only points at graphs
	// that are overwritten in place on the next invocation anyway, so
	// recycling it adds no observable mutation. A primitive value, by
	// contrast, is a plain result the caller may legitimately retain —
	// one primitive plan disables slice recycling for the whole side.
	scratch bool

	// tablesElided counts the reference plans §3.2 proved acyclic — each
	// is a cycle-table allocation the writer skips per message; every
	// successful write adds it to the CycleTablesAvoided counter.
	tablesElided int64

	// hint remembers how much the side's last decoded message carved
	// from each slab, so the next one reserves it in one chunk per slab.
	hint serial.SlabHint
}

// init readies s for plans under cfg, with one reuse cache per node.
func (s *side) init(cfg serial.Config, plans []*serial.Plan, nodes int) {
	s.cfg, s.plans, s.caches = cfg, plans, make([]serial.ReuseCache, nodes)
	if cfg.Mode != serial.ModeSite {
		return
	}
	s.scratch = cfg.Reuse
	for _, p := range plans {
		if p.Kind != model.FRef || !p.Reusable {
			s.scratch = false
		}
		if cfg.CycleElim && p.Kind == model.FRef && !p.NeedCycle {
			s.tablesElided++
		}
	}
}

// write serializes vals into m. On audited calls at a cycle-eliding
// site the value graphs are walked first, and a repeated object — the
// static analysis mis-predicted the runtime heap — falls back to
// serializing WITH the cycle table. The fallback is wire-compatible
// (readers accept handle markers unconditionally), so a refuted claim
// becomes a counted, dumped event instead of silent corruption or a
// non-terminating writer.
func (s *side) write(c *Cluster, st *stats.SiteCounters, m *wire.Message, vals []model.Value, audit bool) (simtime.OpCount, error) {
	cfg, plans := s.cfg, s.plans
	if audit && cfg.Mode == serial.ModeSite && cfg.CycleElim && serial.CheckAcyclic(vals, plans) != nil {
		claimViolated(c, st)
		cfg.CycleElim = false
	}
	ops, err := serial.WriteValues(m, vals, plans, cfg, c.Counters)
	if err == nil && s.tablesElided != 0 {
		st.CycleTablesAvoided.Add(s.tablesElided)
	}
	return ops, err
}

// read deserializes n values from m on node: it takes the cached donor
// graphs (Figure 13's temp_arr guard), counting the hit or miss,
// overwrites them in place where shapes match, and returns the roots
// for recycle once the values are dead. On audited calls a donor whose
// class differs from the plan's prediction refutes the §3.3 claim and
// is dropped so the reader allocates fresh objects instead. buf, when
// the side does not recycle its value slice, backs the values if it
// has room for them: the callee and a node-local call pass their
// invocation record's inline array. A recycled slice outlives the
// call, and no invocation record does.
func (s *side) read(c *Cluster, node int, st *stats.SiteCounters, m *wire.Message, n int, audit bool, buf []model.Value) ([]model.Value, []*model.Object, simtime.OpCount, error) {
	cfg, plans := s.cfg, s.plans
	cfg.Hint = &s.hint
	var cached []*model.Object
	var scratch []model.Value
	if cfg.Reuse {
		cached, scratch = s.caches[node].Take()
		if cached == nil {
			st.ReuseMisses.Add(1)
		} else {
			st.ReuseHits.Add(1)
			if audit {
				for range serial.CheckReuseShape(cached, plans) {
					claimViolated(c, st)
				}
			}
		}
	}
	if !s.scratch {
		scratch = buf
	}
	return serial.ReadValuesScratch(m, c.Registry, n, plans, cfg, cached, scratch, c.Counters)
}

// recycle returns graphs read on node to its cache once escape
// analysis says they are dead — and, when every reference is covered by
// the proof, the value slice itself — for the next invocation.
func (s *side) recycle(node int, vals []model.Value, roots []*model.Object) {
	if !s.cfg.Reuse {
		return
	}
	if !s.scratch {
		vals = nil
	}
	s.caches[node].Put(roots, vals)
}

// claimViolated records one refuted compile-time claim: per-site and
// global counters plus a flight-recorder dump, so the evidence around
// the mis-prediction is preserved (nil tracer = no-op).
func claimViolated(c *Cluster, st *stats.SiteCounters) {
	st.ClaimViolations.Add(1)
	c.Counters.ClaimViolations.Add(1)
	c.tracer.DumpFailure("claim-violation")
}
