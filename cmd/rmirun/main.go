// Command rmirun compiles a MiniJP program and executes its main
// method on an RMI cluster: the full Manta-JavaParty pipeline in one
// step. Remote class instances are placed round robin over the nodes
// and every remote call runs through the serializers the compiler
// generated for its call site.
//
// Usage:
//
//	rmirun [-nodes 2] [-level "site + reuse + cycle"] [-main Main] file.jp
//	rmirun -example     # run a built-in demo program
package main

import (
	"flag"
	"fmt"
	"os"

	"cormi/internal/core"
	"cormi/internal/interp"
	"cormi/internal/rmi"
	"cormi/internal/simtime"
)

const exampleSrc = `
// A distributed dot-product: two remote workers each own half of the
// vectors and compute partial sums that main combines.
remote class Worker {
	double[] a;
	double[] b;
	void load(double[] x, double[] y) {
		this.a = x;
		this.b = y;
	}
	double dot() {
		double s = 0.0;
		for (int i = 0; i < this.a.length; i = i + 1) {
			s = s + this.a[i] * this.b[i];
		}
		return s;
	}
}
class Main {
	static double[] ramp(int n, int off) {
		double[] v = new double[n];
		for (int i = 0; i < n; i = i + 1) {
			v[i] = i + off;
		}
		return v;
	}
	static double main() {
		Worker w0 = new Worker();
		Worker w1 = new Worker();
		w0.load(Main.ramp(100, 0), Main.ramp(100, 1));
		w1.load(Main.ramp(100, 100), Main.ramp(100, 101));
		return w0.dot() + w1.dot();
	}
}
`

func main() {
	nodes := flag.Int("nodes", 2, "cluster size")
	levelName := flag.String("level", "site + reuse + cycle", "optimization level")
	mainClass := flag.String("main", "Main", "class whose static main() runs")
	example := flag.Bool("example", false, "run the built-in demo")
	flag.Parse()

	var level rmi.OptLevel
	found := false
	for _, l := range rmi.AllLevels {
		if l.String() == *levelName {
			level = l
			found = true
		}
	}
	if !found {
		fmt.Fprintf(os.Stderr, "rmirun: unknown level %q (try one of: class, site, site + cycle, site + reuse, site + reuse + cycle)\n", *levelName)
		os.Exit(2)
	}
	if *nodes < 1 {
		fmt.Fprintf(os.Stderr, "rmirun: -nodes must be at least 1, got %d\n", *nodes)
		os.Exit(2)
	}

	src := exampleSrc
	switch {
	case *example:
	case flag.NArg() == 1:
		b, err := os.ReadFile(flag.Arg(0))
		if err != nil {
			fail(err)
		}
		src = string(b)
	default:
		fmt.Fprintln(os.Stderr, "rmirun: need a source file or -example")
		os.Exit(2)
	}

	cluster := rmi.New(*nodes)
	defer cluster.Close()
	res, err := core.CompileInto(src, cluster.Registry)
	if err != nil {
		fail(err)
	}
	machine, err := interp.New(res, cluster, level)
	if err != nil {
		fail(err)
	}
	v, err := machine.RunMain(*mainClass)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s.main() = %v\n", *mainClass, v)
	s := cluster.Counters.Snapshot()
	fmt.Printf("level: %s   rpcs: %d local / %d remote   virtual time: %.3f ms\n",
		level, s.LocalRPCs, s.RemoteRPCs, simtime.Seconds(cluster.MaxTime())*1e3)
	fmt.Printf("serializer calls: %d   cycle lookups: %d   reused objects: %d   wire: %d B\n",
		s.SerializerCalls, s.CycleLookups, s.ReusedObjs, s.WireBytes)
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "rmirun: %v\n", err)
	os.Exit(1)
}
