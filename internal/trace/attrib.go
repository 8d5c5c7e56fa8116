package trace

// Tail-latency attribution: per-site phase blame, slow-call exemplars,
// and the mergeable snapshot any node or collector can fold into a
// cluster-wide view (DESIGN.md §14).
//
// Blame is recorded on the span-close path (trace.go close); this file
// holds the read side — exemplar capture and the Attribution snapshot
// whose log2 histograms merge exactly across nodes — plus
// MergeAttributions, the fold the /cluster endpoint and rmitop use.

import (
	"sort"

	"cormi/internal/metrics"
)

// Exemplar is one retained slow call: a call whose end-to-end latency
// exceeded its site's adaptive p99 threshold at close time. Both span
// halves are kept when the callee ran in the same process (the flight
// recorder is node-local, so a remote callee's half lives in the
// peer's tracer).
type Exemplar struct {
	Site         string `json:"site"`
	Method       string `json:"method"`
	From         int    `json:"from"`
	To           int    `json:"to"`
	Seq          int64  `json:"seq"`
	TotalNS      int64  `json:"total_ns"`
	ThresholdNS  int64  `json:"threshold_ns"`
	CapturedWall int64  `json:"captured_wall_ns"`
	Err          string `json:"err,omitempty"`
	Retries      int    `json:"retries,omitempty"`
	// TraceID links a sampled slow call to its distributed trace
	// (/traces/<id>); zero when the call was not sampled.
	TraceID uint64 `json:"trace_id,omitempty"`
	Blame   string `json:"blame"`
	// Spans holds the call's records verbatim: the caller half, then
	// the callee half when it ran in this process. /slow/trace renders
	// them.
	Spans []SpanRecord `json:"spans"`
}

// dominantPhase returns the longest blamable phase across the given
// span records ("" when none recorded).
func dominantPhase(spans []SpanRecord) string {
	best, bp := int64(0), -1
	for i := range spans {
		for p := range spans[i].PhaseDur {
			if !blamable(Phase(p)) {
				continue
			}
			if d := spans[i].PhaseDur[p]; d > best {
				best, bp = d, p
			}
		}
	}
	if bp < 0 {
		return ""
	}
	return Phase(bp).String()
}

// captureExemplar retains a slow caller span (already pushed to the
// flight recorder) plus its same-process callee half. Called only for
// calls past the site's p99 threshold, so allocation here is off the
// common path by construction.
func (t *Tracer) captureExemplar(st *siteState, rec *SpanRecord, tot int64) {
	ex := Exemplar{
		Site: rec.Site, Method: rec.Method, From: rec.From, To: rec.To,
		Seq: rec.Seq, TotalNS: tot, ThresholdNS: st.threshold.Load(),
		CapturedWall: Now(), Err: rec.Err, Retries: rec.Retries,
		TraceID: rec.TraceID,
	}
	ex.Spans = append(ex.Spans, *rec)

	// The callee half of the same call closed before the caller
	// received the reply, so when it ran in this process it is already
	// in the ring; scan newest-first.
	t.ringMu.Lock()
	n, size := t.ringN, uint64(len(t.ring))
	count := n
	if count > size {
		count = size
	}
	for i := uint64(0); i < count; i++ {
		r := &t.ring[(n-1-i)%size]
		if r.Kind == KindCallee && r.From == rec.From && r.Seq == rec.Seq && r.Site == rec.Site {
			ex.Spans = append(ex.Spans, *r)
			break
		}
	}
	t.ringMu.Unlock()

	ex.Blame = dominantPhase(ex.Spans)

	st.exemplars.Add(1)
	t.exemplarsTotal.Add(1)
	t.exMu.Lock()
	t.exs[t.exN%uint64(len(t.exs))] = ex
	t.exN++
	t.exMu.Unlock()
}

// Slow returns the retained slow-call exemplars, newest first. The
// slice is a private copy.
func (t *Tracer) Slow() []Exemplar {
	if t == nil {
		return nil
	}
	t.exMu.Lock()
	defer t.exMu.Unlock()
	n, size := t.exN, uint64(len(t.exs))
	count := n
	if count > size {
		count = size
	}
	out := make([]Exemplar, 0, count)
	for i := uint64(0); i < count; i++ {
		out = append(out, t.exs[(n-1-i)%size])
	}
	return out
}

// Exemplars returns the total slow-call exemplars captured so far
// (monotone; the ring itself is bounded).
func (t *Tracer) Exemplars() int64 {
	if t == nil {
		return 0
	}
	return t.exemplarsTotal.Load()
}

// BlamePhase is one phase's share of a site's attribution: how many
// spans it dominated (wins) and its accumulated self time.
type BlamePhase struct {
	Phase  string `json:"phase"`
	Wins   int64  `json:"wins"`
	SelfNS int64  `json:"self_ns"`
}

// PhaseHist is one phase's latency distribution, snapshot form.
type PhaseHist struct {
	Phase string               `json:"phase"`
	Hist  metrics.HistSnapshot `json:"hist"`
}

// SiteAttribution is one site's complete attribution snapshot. Every
// field merges across nodes: histograms bucket-wise (exact for log2
// buckets), counters by sum, the threshold by max (the most demanding
// armed estimate wins). MergeAttributions implements the fold; keep it
// in sync with this struct — the completeness test in attrib_test.go
// fails if a field is added but not merged.
type SiteAttribution struct {
	Site string `json:"site"`
	// Calls counts caller-observed calls (the Total histogram's count):
	// the serving node of a remote call contributes phases and blame
	// but no Calls, so cluster-wide Calls never double-counts.
	Calls uint64 `json:"calls"`
	// Total is the caller-observed end-to-end latency distribution;
	// cluster p50/p95/p99 derive from the merged snapshot.
	Total       metrics.HistSnapshot `json:"total"`
	Phases      []PhaseHist          `json:"phases,omitempty"`
	Blame       []BlamePhase         `json:"blame,omitempty"`
	ThresholdNS int64                `json:"threshold_ns"`
	Exemplars   int64                `json:"exemplars"`
}

// TopBlame returns the site's dominant phase by self time and its
// share of all attributed self time ("", 0 when nothing recorded).
func (sa *SiteAttribution) TopBlame() (string, float64) {
	var sum, best int64
	bp := ""
	for _, b := range sa.Blame {
		sum += b.SelfNS
		if b.SelfNS > best {
			best, bp = b.SelfNS, b.Phase
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
		sa := SiteAttribution{
			Site:        k.(string),
			Total:       st.total.Snapshot(),
			ThresholdNS: st.threshold.Load(),
			Exemplars:   st.exemplars.Load(),
		}
		sa.Calls = sa.Total.Total
		for p := Phase(0); p < NumPhases; p++ {
			if snap := st.hists[p].Snapshot(); snap.Total > 0 {
				sa.Phases = append(sa.Phases, PhaseHist{Phase: p.String(), Hist: snap})
			}
			w, s := st.wins[p].Load(), st.self[p].Load()
			if w > 0 || s > 0 {
				sa.Blame = append(sa.Blame, BlamePhase{Phase: p.String(), Wins: w, SelfNS: s})
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
// snapshots add bucket-wise (exact), counters sum, thresholds take the
// max. Phases and blame rows are re-sorted into phase order, so
// merging a single snapshot with nothing is the identity — the
// completeness test relies on that.
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
			for _, b := range sa.Blame {
				mergeBlame(&m.Blame, b)
			}
			if sa.ThresholdNS > m.ThresholdNS {
				m.ThresholdNS = sa.ThresholdNS
			}
			m.Exemplars += sa.Exemplars
		}
	}
	sort.Strings(order)
	out := make([]SiteAttribution, 0, len(order))
	for _, site := range order {
		m := bySite[site]
		sort.Slice(m.Phases, func(i, j int) bool {
			return phaseIndex(m.Phases[i].Phase) < phaseIndex(m.Phases[j].Phase)
		})
		sort.Slice(m.Blame, func(i, j int) bool {
			return phaseIndex(m.Blame[i].Phase) < phaseIndex(m.Blame[j].Phase)
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

func mergeBlame(dst *[]BlamePhase, b BlamePhase) {
	for i := range *dst {
		if (*dst)[i].Phase == b.Phase {
			(*dst)[i].Wins += b.Wins
			(*dst)[i].SelfNS += b.SelfNS
			return
		}
	}
	*dst = append(*dst, b)
}
