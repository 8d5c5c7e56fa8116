package trace

import (
	"reflect"
	"testing"
)

// backdated opens a caller span whose Start is shifted ns into the
// past, so the close path sees a controlled end-to-end latency without
// sleeping.
func backdated(tr *Tracer, site string, seq, ns int64) *Span {
	sp := tr.StartCaller(site, "m", 0, 1, seq)
	sp.Start = Now() - ns
	return sp
}

func siteAttr(t *testing.T, tr *Tracer, site string) SiteAttribution {
	t.Helper()
	for _, sa := range tr.Attribution() {
		if sa.Site == site {
			return sa
		}
	}
	t.Fatalf("site %q missing from Attribution: %+v", site, tr.Attribution())
	return SiteAttribution{}
}

func phaseSum(sa SiteAttribution, phase string) int64 {
	for _, ph := range sa.Phases {
		if ph.Phase == phase {
			return ph.Hist.Sum
		}
	}
	return 0
}

func TestBlameClassification(t *testing.T) {
	tr := New(Config{RingSize: 16})
	// Two spans of 5000ns execute, one of 3000ns serialize. wait_reply
	// is a container over the others: its histogram is kept, but it
	// must never be blamed.
	for i := 0; i < 2; i++ {
		sp := tr.StartCallee("S.x.1", "x", 0, 1, int64(i), 0)
		sp.SetPhase(PhaseExecute, Now(), 5000)
		sp.SetPhase(PhaseDeserialize, Now(), 100)
		sp.End()
	}
	sp := backdated(tr, "S.x.1", 2, 10000)
	sp.SetPhase(PhaseSerialize, Now(), 3000)
	sp.SetPhase(PhaseWaitReply, Now(), 90000)
	sp.End()

	sa := siteAttr(t, tr, "S.x.1")
	for phase, want := range map[string]int64{"execute": 10000, "serialize": 3000, "deserialize": 200, "wait_reply": 90000} {
		if got := phaseSum(sa, phase); got != want {
			t.Errorf("%s histogram sum = %d, want %d", phase, got, want)
		}
	}
	phase, share := sa.TopBlame()
	if phase != "execute" || share != 10000.0/13200 {
		t.Errorf("TopBlame = %q %.4f, want execute at 10000/13200 (wait_reply excluded)", phase, share)
	}
	// Calls counts caller spans only.
	if sa.Calls != 1 {
		t.Errorf("Calls = %d, want 1 (caller spans only)", sa.Calls)
	}
	var empty SiteAttribution
	if p, s := empty.TopBlame(); p != "" || s != 0 {
		t.Errorf("TopBlame of an empty site = %q %v, want \"\", 0", p, s)
	}
}

func TestAttributionMergeMatchesSingleTracer(t *testing.T) {
	// The same span stream split across two tracers (two "nodes") and
	// merged must equal the stream recorded into one tracer — the
	// histogram-merge exactness lifted to the attribution level. The
	// records are closed directly (not via End, which stamps the wall
	// clock) so both recordings are bit-identical.
	record := func(tr *Tracer, i int64) {
		s := tr.pool.Get().(*Span)
		s.SpanRecord = SpanRecord{
			Site: "S.m.1", Method: "m", From: 0, To: 1, Seq: i,
			Kind: KindCaller, Start: 1000, End: 1000 + 1000*(i+1),
		}
		s.t = tr
		s.SetPhase(PhaseExecute, 1000, 500*(i+1))
		s.SetPhase(PhaseSerialize, 1000, 100)
		tr.close(s)
	}
	one := New(Config{RingSize: 32})
	a := New(Config{RingSize: 32})
	b := New(Config{RingSize: 32})
	for i := int64(0); i < 40; i++ {
		dst := a
		if i%2 == 1 {
			dst = b
		}
		record(one, i)
		record(dst, i)
	}
	merged := MergeAttributions(a.Attribution(), b.Attribution())
	want := one.Attribution()
	if !reflect.DeepEqual(merged, want) {
		t.Fatalf("merged attribution != single-tracer attribution\nmerged: %+v\nwant:   %+v", merged, want)
	}
}

// TestMergeAttributionsCoversEveryField is the drift guard: a fully
// populated SiteAttribution merged alone must come back unchanged. A
// field added to the struct but not to MergeAttributions drops to its
// zero value and fails the DeepEqual; a field added but not populated
// here fails the IsZero sweep, forcing this test to keep pace.
func TestMergeAttributionsCoversEveryField(t *testing.T) {
	sa := SiteAttribution{Site: "S.full.1", Calls: 7}
	sa.Total.Buckets[10] = 7
	sa.Total.Sum = 7000
	sa.Total.Total = 7
	ph := PhaseHist{Phase: "execute"}
	ph.Hist.Buckets[9] = 7
	ph.Hist.Sum = 3500
	ph.Hist.Total = 7
	sa.Phases = []PhaseHist{ph}

	v := reflect.ValueOf(sa)
	for i := 0; i < v.NumField(); i++ {
		if v.Field(i).IsZero() {
			t.Fatalf("field %s not populated by this test; update it (and MergeAttributions) for the new field",
				v.Type().Field(i).Name)
		}
	}
	merged := MergeAttributions([]SiteAttribution{sa})
	if len(merged) != 1 || !reflect.DeepEqual(merged[0], sa) {
		t.Fatalf("identity merge dropped a field\nmerged: %+v\nwant:   %+v", merged, sa)
	}

	// Two copies double every field.
	doubled := MergeAttributions([]SiteAttribution{sa}, []SiteAttribution{sa})[0]
	if doubled.Calls != 14 || doubled.Total.Total != 14 || doubled.Phases[0].Hist.Sum != 7000 {
		t.Errorf("summed fields wrong after self-merge: %+v", doubled)
	}
}

func TestNilTracerAttributionSurface(t *testing.T) {
	var tr *Tracer
	if tr.Attribution() != nil {
		t.Fatal("nil tracer attribution surface must be empty")
	}
}
