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
	"io"
	"os"

	"cormi"
	"cormi/internal/simtime"
)

const exampleSrc = `
/* A distributed dot-product: two remote workers each own half of the
   vectors and compute partial sums that main combines. A third call
   carries an int[] and a boolean: a tally of the string lengths. */
remote class Worker {
	double[] a;
	double[] b;
	int tallies;
	void load(double[] x, double[] y) {
		this.a = x;
		this.b = y;
	}
	double dot() {
		double s = 0.0;
		for (int i = 0; i < this.a.length; i++) {
			s += this.a[i] * this.b[i];
		}
		return s;
	}
	int tally(int[] counts, boolean twice) {
		int t;
		for (int i = 0; i < counts.length; i++) {
			t += counts[i];
		}
		if (twice) {
			t = t * 2;
		}
		this.tallies++;
		return t;
	}
}
class Main {
	static int salt;
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
		int[] counts = new int[2];
		counts[0] = "dot".length();
		counts[1] = "product".length() + Main.salt;
		int n = w1.tally(counts, "dot".hashCode() != 0);
		return w0.dot() + w1.dot() + n;
	}
}
`

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run is main minus the process exit, so tests can drive it. Exit
// codes: 0 clean, 1 failure, 2 usage.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("rmirun", flag.ContinueOnError)
	fs.SetOutput(stderr)
	nodes := fs.Int("nodes", 2, "cluster size")
	levelName := fs.String("level", "site + reuse + cycle", "optimization level")
	mainClass := fs.String("main", "Main", "class whose static main() runs")
	example := fs.Bool("example", false, "run the built-in demo")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	var level cormi.OptLevel
	found := false
	for _, l := range cormi.AllLevels {
		if l.String() == *levelName {
			level = l
			found = true
		}
	}
	if !found {
		fmt.Fprintf(stderr, "rmirun: unknown level %q (try one of: class, site, site + cycle, site + reuse, site + reuse + cycle)\n", *levelName)
		return 2
	}
	if *nodes < 1 {
		fmt.Fprintf(stderr, "rmirun: -nodes must be at least 1, got %d\n", *nodes)
		return 2
	}

	src := exampleSrc
	switch {
	case *example:
	case fs.NArg() == 1:
		b, err := os.ReadFile(fs.Arg(0))
		if err != nil {
			return fail(stderr, err)
		}
		src = string(b)
	default:
		fmt.Fprintln(stderr, "rmirun: need a source file or -example")
		return 2
	}

	prog, err := cormi.Compile(src)
	if err != nil {
		return fail(stderr, err)
	}
	cluster := cormi.NewCluster(*nodes, cormi.WithRegistry(prog.Registry()))
	defer cluster.Close()
	v, err := prog.Run(cluster, level, *mainClass)
	if err != nil {
		return fail(stderr, err)
	}
	fmt.Fprintf(stdout, "%s.main() = %v\n", *mainClass, v)
	s := cluster.Counters.Snapshot()
	fmt.Fprintf(stdout, "level: %s   rpcs: %d local / %d remote   virtual time: %.3f ms\n",
		level, s.LocalRPCs, s.RemoteRPCs, simtime.Seconds(cluster.MaxTime())*1e3)
	fmt.Fprintf(stdout, "serializer calls: %d   cycle lookups: %d   reused objects: %d   wire: %d B\n",
		s.SerializerCalls, s.CycleLookups, s.ReusedObjs, s.WireBytes)
	return 0
}

// fail reports err and returns the failure exit code.
func fail(stderr io.Writer, err error) int {
	fmt.Fprintf(stderr, "rmirun: %v\n", err)
	return 1
}
