package stats

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// These tests pin the maintenance contract of the Counters/Snapshot
// pair: every counter added to Counters must also be copied by
// Snapshot, subtracted by Sub, and rendered by String. The checks walk the structs with reflection, so adding a
// field to one side without the others fails here instead of silently
// dropping data from reports.

// storeCounter writes one Counters field via its Store method.
func storeCounter(f reflect.Value, v int64) {
	f.Addr().MethodByName("Store").Call([]reflect.Value{reflect.ValueOf(v)})
}

func TestSnapshotCoversEveryCounterField(t *testing.T) {
	var c Counters
	ct := reflect.TypeOf(&c).Elem()
	st := reflect.TypeOf(Snapshot{})

	// Every Counters field must have a same-named int64 field in
	// Snapshot (and vice versa), so neither side can drift.
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		sf, ok := st.FieldByName(name)
		if !ok {
			t.Errorf("Counters.%s has no Snapshot field", name)
			continue
		}
		if sf.Type.Kind() != reflect.Int64 {
			t.Errorf("Snapshot.%s is %s, want int64", name, sf.Type)
		}
	}
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		if _, ok := ct.FieldByName(name); !ok {
			t.Errorf("Snapshot.%s has no Counters field", name)
		}
	}

	// Store a distinct value into each counter and check Snapshot
	// copies every one of them — a Snapshot() body that forgets a field
	// would pass the shape check above but fail here.
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < ct.NumField(); i++ {
		storeCounter(cv.Field(i), int64(1000+i))
	}
	sv := reflect.ValueOf(c.Snapshot())
	for i := 0; i < ct.NumField(); i++ {
		name := ct.Field(i).Name
		got := sv.FieldByName(name).Int()
		if got != int64(1000+i) {
			t.Errorf("Snapshot().%s = %d, want %d (field not copied)", name, got, 1000+i)
		}
	}
}

func TestSubCoversEverySnapshotField(t *testing.T) {
	// a - b must subtract field-wise for EVERY field: build two
	// snapshots with distinct per-field values and check the deltas.
	var a, b Snapshot
	av, bv := reflect.ValueOf(&a).Elem(), reflect.ValueOf(&b).Elem()
	for i := 0; i < av.NumField(); i++ {
		av.Field(i).SetInt(int64(100 + 10*i))
		bv.Field(i).SetInt(int64(i))
	}
	dv := reflect.ValueOf(a.Sub(b))
	for i := 0; i < dv.NumField(); i++ {
		want := int64(100 + 10*i - i)
		if got := dv.Field(i).Int(); got != want {
			t.Errorf("Sub().%s = %d, want %d (field not subtracted)",
				dv.Type().Field(i).Name, got, want)
		}
	}
}

func TestStringRendersFaultCounters(t *testing.T) {
	var c Counters
	c.Retries.Store(4)
	c.Timeouts.Store(1)
	c.DupSuppressed.Store(3)
	c.CorruptDropped.Store(2)
	c.StaleReplies.Store(5)
	out := c.Snapshot().String()
	for _, frag := range []string{
		"retries=4", "timeouts=1", "dupSuppressed=3",
		"corruptDropped=2", "staleReplies=5",
	} {
		if !strings.Contains(out, frag) {
			t.Errorf("String() missing %q: %s", frag, out)
		}
	}
}

func TestStringMentionsEveryCounterValue(t *testing.T) {
	// Weaker than a format check, strong enough to catch a dropped
	// field: give every counter a unique sentinel value and require each
	// sentinel to appear somewhere in the rendering. AllocBytes renders
	// as megabytes, so it is asserted via its MB form instead.
	var c Counters
	cv := reflect.ValueOf(&c).Elem()
	for i := 0; i < cv.NumField(); i++ {
		storeCounter(cv.Field(i), int64(900001+i*7))
	}
	c.AllocBytes.Store(3 << 20)
	out := c.Snapshot().String()
	for i := 0; i < cv.NumField(); i++ {
		name := cv.Type().Field(i).Name
		if name == "AllocBytes" {
			if !strings.Contains(out, "3.00 MB") {
				t.Errorf("String() missing AllocBytes as %q: %s", "3.00 MB", out)
			}
			continue
		}
		if name == "TypeOps" || name == "IntrospectOps" ||
			name == "ReusedBytes" || name == "AcksOnly" {
			// Not part of the paper-style summary line; tracked but
			// reported through other tables.
			continue
		}
		sentinel := fmt.Sprintf("%d", 900001+i*7)
		if !strings.Contains(out, sentinel) {
			t.Errorf("String() missing %s (sentinel %s): %s", name, sentinel, out)
		}
	}
}
