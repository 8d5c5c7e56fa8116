package serial_test

import (
	"bytes"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"cormi/internal/apps/micro"
	"cormi/internal/core"
	"cormi/internal/model"
	"cormi/internal/serial"
	"cormi/internal/stats"
	"cormi/internal/wire"
)

// The two micro-benchmark argument frames (Tables 1 and 2) as the
// compiler's own plans encode them at site+reuse+cycle, pinned as hex
// under testdata/. The goldens were generated before the planned codec
// was restructured (loop on the trailing link, pointer table, batched
// counters), so a byte of drift here is a wire-format change.
// Intentional updates: UPDATE_GOLDEN=1 go test ./internal/serial -run TestMicroFrameGoldens

func compiledArgPlans(t *testing.T, src, callee string, reg *model.Registry) (*core.Result, []*serial.Plan) {
	t.Helper()
	res, err := core.CompileInto(src, reg)
	if err != nil {
		t.Fatal(err)
	}
	sites := res.SitesOfCallee(callee)
	if len(sites) != 1 {
		t.Fatalf("%d call sites for %s, want 1", len(sites), callee)
	}
	return res, sites[0].ArgPlans
}

func checkFrameGolden(t *testing.T, name string, root *model.Object, plans []*serial.Plan) {
	t.Helper()
	cfg := serial.Config{Mode: serial.ModeSite, CycleElim: true, Reuse: true}
	var c stats.Counters
	m := wire.NewMessage(0)
	if _, err := serial.WriteValues(m, []model.Value{model.Ref(root)}, plans, cfg, &c); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(hex.Dump(m.Bytes())), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no golden %s (run with UPDATE_GOLDEN=1 to create): %v", path, err)
	}
	if got := []byte(hex.Dump(m.Bytes())); !bytes.Equal(got, want) {
		t.Errorf("%s drifted (%d bytes on the wire):\n%s", name, m.Len(), got)
	}
}

func TestMicroFrameGoldens(t *testing.T) {
	t.Run("list100", func(t *testing.T) {
		reg := model.NewRegistry()
		res, plans := compiledArgPlans(t, micro.LinkedListSrc, "Foo.send", reg)
		class, ok := res.ModelClass("LinkedList")
		if !ok {
			t.Fatal("LinkedList class missing")
		}
		var head *model.Object
		for i := 0; i < 100; i++ {
			x := model.New(class)
			x.Fields[0] = model.Ref(head)
			head = x
		}
		checkFrameGolden(t, "micro_list100.hex", head, plans)
	})
	t.Run("array16x16", func(t *testing.T) {
		reg := model.NewRegistry()
		_, plans := compiledArgPlans(t, micro.ArrayBenchSrc, "ArrayBench.send", reg)
		arr := model.NewArray(reg.MustByName("double[][]"), 16)
		for i := range arr.Refs {
			row := model.NewArray(reg.DoubleArray(), 16)
			for j := range row.Doubles {
				row.Doubles[j] = float64(i + j)
			}
			arr.Refs[i] = row
		}
		checkFrameGolden(t, "micro_array16x16.hex", arr, plans)
	})
}
