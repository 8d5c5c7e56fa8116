package trace

import (
	"math/rand"
	"testing"
)

// refBlame is the reference for SiteAttribution.TopBlame: a per-site
// self-time fold kept beside the histograms rather than read from
// them. Every closed span adds each phase's positive duration to
// self[phase], except wait_reply, the caller's whole round trip; top
// blame is the phase with the largest self time (the earlier phase on
// a tie) and its share of the site's total self time.
type refBlame map[string]*[NumPhases]int64

func (r refBlame) close(rec *SpanRecord) {
	self := r[rec.Site]
	if self == nil {
		self = new([NumPhases]int64)
		r[rec.Site] = self
	}
	for p, d := range rec.PhaseDur {
		if d > 0 && Phase(p) != PhaseWaitReply {
			self[p] += d
		}
	}
}

func (r refBlame) top(site string) (string, float64) {
	self := r[site]
	if self == nil {
		return "", 0
	}
	var sum, best int64
	bp := ""
	for p, d := range self {
		sum += d
		if d > best {
			best, bp = d, Phase(p).String()
		}
	}
	if sum == 0 {
		return "", 0
	}
	return bp, float64(best) / float64(sum)
}

// refSpan draws one closed span of a seeded stream: either half of a
// call at one of a few sites, each phase's duration zero, negative or
// positive, with the caller's wait_reply often the longest by far.
func refSpan(rng *rand.Rand, seq int64) SpanRecord {
	sites := []string{"R.a.1", "R.b.1", "R.c.1", "R.wait.1"}
	rec := SpanRecord{
		Site: sites[rng.Intn(len(sites))], Method: "m", From: 0, To: 1, Seq: seq,
		Kind: Kind(rng.Intn(2)), Start: 1000,
	}
	rec.End = rec.Start + rng.Int63n(1_000_000) - 1000 // sometimes before Start
	for p := range rec.PhaseDur {
		switch rng.Intn(4) {
		case 0: // not recorded by this half
		case 1:
			rec.PhaseDur[p] = -rng.Int63n(5000)
		default:
			rec.PhaseDur[p] = rng.Int63n(100_000)
		}
	}
	if rec.Kind == KindCaller {
		rec.PhaseDur[PhaseWaitReply] = rng.Int63n(10_000_000)
	}
	if rec.Site == "R.wait.1" {
		// Only wait_reply was recorded: nothing is blamable.
		rec.PhaseDur = [NumPhases]int64{}
		rec.PhaseDur[PhaseWaitReply] = 1 + rng.Int63n(1000)
	}
	return rec
}

// TestTopBlameMatchesSelfTimeReference holds the histogram-derived top
// blame, on one tracer and merged across two, to the self-time fold,
// float for float, on seeded span streams.
func TestTopBlameMatchesSelfTimeReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		ref := refBlame{}
		one := New(Config{})
		halves := [2]*Tracer{New(Config{}), New(Config{})}
		for i := int64(0); i < 500; i++ {
			rec := refSpan(rng, i)
			ref.close(&rec)
			for _, tr := range []*Tracer{one, halves[rng.Intn(2)]} {
				s := tr.pool.Get().(*Span)
				s.SpanRecord, s.t = rec, tr
				tr.close(s)
			}
		}
		merged := MergeAttributions(halves[0].Attribution(), halves[1].Attribution())
		for name, got := range map[string][]SiteAttribution{"one tracer": one.Attribution(), "merged": merged} {
			if len(got) != len(ref) {
				t.Fatalf("seed %d, %s: %d sites, reference has %d", seed, name, len(got), len(ref))
			}
			for i := range got {
				phase, share := got[i].TopBlame()
				wantPhase, wantShare := ref.top(got[i].Site)
				if phase != wantPhase || share != wantShare {
					t.Errorf("seed %d, %s, site %s: TopBlame = %q %v, reference %q %v",
						seed, name, got[i].Site, phase, share, wantPhase, wantShare)
				}
			}
		}
	}
}
