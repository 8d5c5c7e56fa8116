package cormi

import (
	"strings"
	"testing"
)

const quickSrc = `
class Point { double x; double y; }
remote class Geometry {
	double norm2(Point p) { return 0.0; }
}
class Main {
	static void main() {
		Geometry g = new Geometry();
		Point p = new Point();
		p.x = 3.0;
		double n = g.norm2(p);
		double use = n + 1.0;
	}
}
`

func TestFacadeEndToEnd(t *testing.T) {
	prog, err := Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	if names := prog.SiteNames(); len(names) != 1 || names[0] != "Main.main.1" {
		t.Fatalf("site names: %v", names)
	}

	cluster := NewCluster(2, WithRegistry(prog.Registry()))
	defer cluster.Close()

	svc := &Service{Name: "Geometry", Methods: map[string]Method{
		"norm2": func(call *Call, args []Value) []Value {
			p := args[0].O
			x, y := p.Get("x").D, p.Get("y").D
			return []Value{Double(x*x + y*y)}
		},
	}}
	ref := cluster.Node(1).Export(svc)

	site, err := prog.Register(cluster, LevelSiteReuseCycle, "Main.main.1")
	if err != nil {
		t.Fatal(err)
	}
	pointClass, ok := prog.Class("Point")
	if !ok {
		t.Fatal("Point class missing")
	}
	p := NewObject(pointClass)
	p.Set("x", Double(3))
	p.Set("y", Double(4))
	rets, err := site.Invoke(cluster.Node(0), ref, []Value{RefVal(p)})
	if err != nil {
		t.Fatal(err)
	}
	if rets[0].D != 25 {
		t.Fatalf("norm2 = %v", rets[0].D)
	}

	dump, err := prog.DumpSite("Main.main.1")
	if err != nil || !strings.Contains(dump, "marshaler_Main.main.1") {
		t.Fatalf("dump: %v\n%s", err, dump)
	}
}

func TestFacadeErrors(t *testing.T) {
	if _, err := Compile("class {"); err == nil {
		t.Fatal("bad source accepted")
	}
	prog, err := Compile(quickSrc)
	if err != nil {
		t.Fatal(err)
	}
	cluster := NewCluster(2, WithRegistry(prog.Registry()))
	defer cluster.Close()
	if _, err := prog.Register(cluster, LevelSite, "no.such.site"); err == nil {
		t.Fatal("unknown site accepted")
	}
	if _, err := prog.DumpSite("no.such.site"); err == nil {
		t.Fatal("unknown site dump accepted")
	}
}

func TestAllLevelsExported(t *testing.T) {
	if len(AllLevels) != 5 {
		t.Fatalf("AllLevels = %v", AllLevels)
	}
	if LevelClass.String() != "class" || LevelSiteReuseCycle.String() != "site + reuse + cycle" {
		t.Fatal("level names wrong")
	}
}
