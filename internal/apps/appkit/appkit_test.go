package appkit

import (
	"testing"

	"cormi/internal/core"
	"cormi/internal/rmi"
)

const src = `
remote class F {
	int f(int x) { return x; }
	static void main() {
		F me = new F();
		int y = me.f(1);
		int use = y + 1;
	}
}
`

func TestSpecAndRegister(t *testing.T) {
	cluster := rmi.New(2)
	defer cluster.Close()
	res, err := core.CompileInto(src, cluster.Registry)
	if err != nil {
		t.Fatal(err)
	}
	si, err := SoleSite(res, "F.f")
	if err != nil {
		t.Fatal(err)
	}
	spec := SpecOf(si)
	if spec.Method != "f" || spec.Name != "F.main.1" || spec.NumRet != 1 || spec.IgnoreRet {
		t.Fatalf("spec: %+v", spec)
	}
	cs, err := Register(cluster, rmi.LevelSiteReuseCycle, si)
	if err != nil || cs == nil {
		t.Fatalf("register: %v", err)
	}
}

func TestRegisterErrors(t *testing.T) {
	cluster := rmi.New(1)
	defer cluster.Close()
	if _, err := Register(cluster, rmi.LevelSite, nil); err == nil {
		t.Fatal("nil site accepted")
	}
	if _, err := Register(cluster, rmi.LevelSite, &core.SiteInfo{Dead: true, Name: "d"}); err == nil {
		t.Fatal("dead site accepted")
	}
	res, err := core.CompileInto(src, cluster.Registry)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := SoleSite(res, "F.nope"); err == nil {
		t.Fatal("missing callee accepted")
	}
}

func TestCollect(t *testing.T) {
	cluster := rmi.New(1)
	defer cluster.Close()
	cluster.Node(0).Clock.Advance(2_000_000_000)
	cluster.Counters.RemoteRPCs.Add(4)
	rr := Collect(cluster)
	if rr.Seconds != 2.0 || rr.Stats.RemoteRPCs != 4 {
		t.Fatalf("collect: %+v", rr)
	}
}
