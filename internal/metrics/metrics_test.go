package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0}, {2, 1}, {3, 1}, {4, 2}, {1023, 9}, {1024, 10},
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	// 1000 observations uniform in [0, 1000).
	for i := int64(0); i < 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Total != 1000 {
		t.Fatalf("count = %d, want 1000", s.Total)
	}
	p50 := s.Quantile(0.50)
	// Log2 buckets are coarse: p50 of uniform [0,1000) must land in
	// [256, 1024) (the buckets covering the true median 500).
	if p50 < 256 || p50 > 1024 {
		t.Errorf("p50 = %g, want within [256, 1024)", p50)
	}
	if p99 := s.Quantile(0.99); p99 < p50 {
		t.Errorf("p99 %g < p50 %g", p99, p50)
	}
	if mean := s.Mean(); mean < 400 || mean > 600 {
		t.Errorf("mean = %g, want ~499.5", mean)
	}
	if q := (HistSnapshot{}).Quantile(0.5); q != 0 {
		t.Errorf("empty quantile = %g, want 0", q)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const workers, per = 8, 10000
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				h.Observe(int64(w*1000 + i))
			}
		}(w)
	}
	wg.Wait()
	if got := h.Snapshot().Total; got != workers*per {
		t.Fatalf("count = %d, want %d", got, workers*per)
	}
}

func TestRegistryPrometheus(t *testing.T) {
	r := NewRegistry()
	fam := r.Family("cormi_phase_latency_ns", "per-phase call latency")
	fam.Series(`site="a",phase="serialize"`).Observe(100)
	fam.Series(`site="a",phase="serialize"`).Observe(3000)
	fam.Series(`site="b",phase="execute"`).Observe(7)
	r.RegisterGauge("cormi_pool_outstanding", "buffers out", func() float64 { return 3 })

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE cormi_phase_latency_ns histogram",
		`cormi_phase_latency_ns_bucket{site="a",phase="serialize",le="+Inf"} 2`,
		`cormi_phase_latency_ns_sum{site="a",phase="serialize"} 3100`,
		`cormi_phase_latency_ns_count{site="b",phase="execute"} 1`,
		"# TYPE cormi_pool_outstanding gauge",
		"cormi_pool_outstanding 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets must be monotonic: the le="128" bucket of the
	// 100+3000 series holds 1, le="4096" holds 2.
	if !strings.Contains(out, `site="a",phase="serialize",le="128"} 1`) {
		t.Errorf("missing cumulative bucket le=128:\n%s", out)
	}
	if !strings.Contains(out, `site="a",phase="serialize",le="4096"} 2`) {
		t.Errorf("missing cumulative bucket le=4096:\n%s", out)
	}
}

func TestFamilySeriesReuse(t *testing.T) {
	r := NewRegistry()
	f := r.Family("f", "")
	if f.Series("x") != f.Series("x") {
		t.Fatal("Series not stable for same labels")
	}
	if r.Family("f", "") != f {
		t.Fatal("Family not stable for same name")
	}
}

func TestRegistryCounterVec(t *testing.T) {
	r := NewRegistry()
	r.RegisterCounterVec("cormi_site_calls", "per-site call count", func() []LabeledValue {
		return []LabeledValue{
			{Labels: `site="Work.go.1"`, Value: 12},
			{Labels: `site="Work.go.2"`, Value: 0},
			{Value: 5}, // label-free sample renders bare
		}
	})

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP cormi_site_calls per-site call count",
		"# TYPE cormi_site_calls counter",
		`cormi_site_calls{site="Work.go.1"} 12`,
		`cormi_site_calls{site="Work.go.2"} 0`,
		"cormi_site_calls 5",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}
