package trace

// Tail-latency attribution: the mergeable per-site snapshot any node
// or collector can fold into a cluster-wide view (DESIGN.md §14).
//
// The phase histograms recorded on the span-close path (trace.go
// close) are the whole record: a site's blame is read from their sums
// at snapshot time. This file holds the read side — the Attribution
// snapshot whose log2 histograms merge exactly across nodes, TopBlame,
// and MergeAttributions, the fold the /cluster endpoint uses.

import (
	"sort"

	"cormi/internal/metrics"
)

// PhaseHist is one phase's latency distribution, snapshot form.
type PhaseHist struct {
	Phase string               `json:"phase"`
	Hist  metrics.HistSnapshot `json:"hist"`
}

// SiteAttribution is one site's complete attribution snapshot. Every
// field merges across nodes: histograms bucket-wise (exact for log2
// buckets), the call count by sum. MergeAttributions implements the
// fold; keep it in sync with this struct — the completeness test in
// attrib_test.go fails if a field is added but not merged.
type SiteAttribution struct {
	Site string `json:"site"`
	// Calls counts caller-observed calls (the Total histogram's count):
	// the serving node of a remote call contributes phases but no
	// Calls, so cluster-wide Calls never double-counts.
	Calls uint64 `json:"calls"`
	// Total is the caller-observed end-to-end latency distribution;
	// cluster p50/p95/p99 derive from the merged snapshot.
	Total  metrics.HistSnapshot `json:"total"`
	Phases []PhaseHist          `json:"phases,omitempty"`
}

// TopBlame returns the site's dominant phase — the blamable phase with
// the largest accumulated time, its histogram's sum — and that phase's
// share of the time summed over every blamable phase ("", 0 when
// nothing was recorded). Duration-weighted, so one 10ms execute
// outvotes a thousand 1µs serializes. Ties go to the earlier phase.
func (sa *SiteAttribution) TopBlame() (string, float64) {
	var sum, best int64
	bp := ""
	for _, ph := range sa.Phases {
		if !blamable(Phase(phaseIndex(ph.Phase))) {
			continue
		}
		sum += ph.Hist.Sum
		if ph.Hist.Sum > best {
			best, bp = ph.Hist.Sum, ph.Phase
		}
	}
	if sum == 0 {
		return "", 0
	}
	return bp, float64(best) / float64(sum)
}

// Attribution snapshots every site's attribution state, sorted by site
// name. The result is self-contained and mergeable (see
// MergeAttributions); /snapshot serves it verbatim.
func (t *Tracer) Attribution() []SiteAttribution {
	if t == nil {
		return nil
	}
	var out []SiteAttribution
	t.sites.Range(func(k, v any) bool {
		st := v.(*siteState)
		sa := SiteAttribution{Site: k.(string), Total: st.total.Snapshot()}
		sa.Calls = sa.Total.Total
		for p := Phase(0); p < NumPhases; p++ {
			if snap := st.hists[p].Snapshot(); snap.Total > 0 {
				sa.Phases = append(sa.Phases, PhaseHist{Phase: p.String(), Hist: snap})
			}
		}
		out = append(out, sa)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].Site < out[j].Site })
	return out
}

// MergeAttributions folds any number of per-node attribution snapshots
// into one cluster-wide view, merging rows site-wise: histogram
// snapshots add bucket-wise (exact), call counts sum. Phase rows are
// re-sorted into phase order, so merging a single snapshot with
// nothing is the identity — the completeness test relies on that.
func MergeAttributions(groups ...[]SiteAttribution) []SiteAttribution {
	bySite := make(map[string]*SiteAttribution)
	var order []string
	for _, g := range groups {
		for i := range g {
			sa := &g[i]
			m, ok := bySite[sa.Site]
			if !ok {
				m = &SiteAttribution{Site: sa.Site}
				bySite[sa.Site] = m
				order = append(order, sa.Site)
			}
			m.Calls += sa.Calls
			m.Total = m.Total.Merge(sa.Total)
			for _, ph := range sa.Phases {
				mergePhaseHist(&m.Phases, ph)
			}
		}
	}
	sort.Strings(order)
	out := make([]SiteAttribution, 0, len(order))
	for _, site := range order {
		m := bySite[site]
		sort.Slice(m.Phases, func(i, j int) bool {
			return phaseIndex(m.Phases[i].Phase) < phaseIndex(m.Phases[j].Phase)
		})
		out = append(out, *m)
	}
	return out
}

func mergePhaseHist(dst *[]PhaseHist, ph PhaseHist) {
	for i := range *dst {
		if (*dst)[i].Phase == ph.Phase {
			(*dst)[i].Hist = (*dst)[i].Hist.Merge(ph.Hist)
			return
		}
	}
	*dst = append(*dst, ph)
}
