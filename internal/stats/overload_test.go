package stats

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// Same maintenance contract as the Counters/Snapshot pair: every field
// added to OverloadStats must be summed by Add, rendered by String,
// and carry a snake_case JSON tag — the reflective sweeps below fail
// on a field added to the struct but not to one of those surfaces.

func TestOverloadAddCoversEveryField(t *testing.T) {
	var a, b OverloadStats
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		if av.Field(i).Kind() != reflect.Int64 {
			t.Fatalf("OverloadStats.%s is %s; gauges are int64 levels",
				av.Type().Field(i).Name, av.Field(i).Type())
		}
		av.Field(i).SetInt(int64(100 + 10*i))
		bv.Field(i).SetInt(int64(1 + i))
	}
	sv := reflect.ValueOf(a.Add(b))
	for i := 0; i < sv.NumField(); i++ {
		want := int64(100 + 10*i + 1 + i)
		if got := sv.Field(i).Int(); got != want {
			t.Errorf("Add().%s = %d, want %d (field not summed)",
				sv.Type().Field(i).Name, got, want)
		}
	}
}

func TestOverloadJSONTagsAreSnakeCase(t *testing.T) {
	ot := reflect.TypeOf(OverloadStats{})
	for i := 0; i < ot.NumField(); i++ {
		tag := ot.Field(i).Tag.Get("json")
		if tag == "" || tag == "-" {
			t.Errorf("OverloadStats.%s has no json tag", ot.Field(i).Name)
			continue
		}
		if strings.ToLower(tag) != tag || strings.Contains(tag, " ") {
			t.Errorf("OverloadStats.%s json tag %q is not snake_case", ot.Field(i).Name, tag)
		}
	}
	// Round trip: every field survives marshal/unmarshal.
	var o OverloadStats
	ov := reflect.ValueOf(&o).Elem()
	for i := 0; i < ov.NumField(); i++ {
		ov.Field(i).SetInt(int64(11 + i))
	}
	data, err := json.Marshal(o)
	if err != nil {
		t.Fatal(err)
	}
	var back OverloadStats
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != o {
		t.Errorf("JSON round trip lost data: %+v != %+v", back, o)
	}
}
