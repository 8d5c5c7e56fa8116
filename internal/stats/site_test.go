package stats

import (
	"reflect"
	"testing"
)

// The SiteCounters/SiteStat pair carries the same maintenance contract
// as Counters/Snapshot: every counter must appear in the snapshot (and
// vice versa), be copied by Snapshot, and be rendered by String.

func TestSiteStatCoversEverySiteCounter(t *testing.T) {
	var c SiteCounters
	ct := reflect.TypeOf(&c).Elem()
	st := reflect.TypeOf(SiteStat{})

	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		sf, ok := st.FieldByName(name)
		if !ok {
			t.Errorf("SiteCounters.%s has no SiteStat field", name)
			continue
		}
		if sf.Type.Kind() != reflect.Int64 {
			t.Errorf("SiteStat.%s is %s, want int64", name, sf.Type)
		}
	}
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		if name == "Site" {
			continue // the key, not a counter
		}
		if _, ok := ct.FieldByName(name); !ok {
			t.Errorf("SiteStat.%s has no SiteCounters field", name)
		}
	}

	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < ct.NumField(); i++ {
		storeCounter(cv.Field(i), int64(2000+i))
	}
	sv := reflect.ValueOf(c.Snapshot("Work.go.1"))
	if got := sv.FieldByName("Site").String(); got != "Work.go.1" {
		t.Errorf("Snapshot site = %q", got)
	}
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		if got := sv.FieldByName(name).Int(); got != int64(2000+i) {
			t.Errorf("Snapshot().%s = %d, want %d (field not copied)", name, got, 2000+i)
		}
	}
}

func TestSiteStatAddSumsEveryField(t *testing.T) {
	st := reflect.TypeOf(SiteStat{})
	a := SiteStat{Site: "x"}
	b := SiteStat{Site: "y"}
	av := reflect.ValueOf(&a).Elem()
	bv := reflect.ValueOf(&b).Elem()
	for i := 0; i < st.NumField(); i++ {
		if st.Field(i).Type.Kind() != reflect.Int64 {
			continue
		}
		av.Field(i).SetInt(int64(10 + i))
		bv.Field(i).SetInt(int64(100 + i))
	}
	sum := a.Add(b)
	if sum.Site != "x" {
		t.Errorf("Add site = %q, want receiver's %q", sum.Site, "x")
	}
	sv := reflect.ValueOf(sum)
	for i := 0; i < st.NumField(); i++ {
		if st.Field(i).Type.Kind() != reflect.Int64 {
			continue
		}
		if got, want := sv.Field(i).Int(), int64(110+2*i); got != want {
			t.Errorf("Add().%s = %d, want %d (field not summed)", st.Field(i).Name, got, want)
		}
	}
}
