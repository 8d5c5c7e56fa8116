package stats

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// Every field added to OverloadStats must be an int64 level with a
// snake_case JSON tag; the reflective sweep below fails on one that is
// not.

func TestOverloadJSONTagsAreSnakeCase(t *testing.T) {
	ot := reflect.TypeOf(OverloadStats{})
	for i := 0; i < ot.NumField(); i++ {
		if ot.Field(i).Type.Kind() != reflect.Int64 {
			t.Errorf("OverloadStats.%s is %s; gauges are int64 levels", ot.Field(i).Name, ot.Field(i).Type)
		}
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
