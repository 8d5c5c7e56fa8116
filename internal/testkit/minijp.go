// Random MiniJP program generation for the soundness fuzzer: small
// straight-line programs over a two-pointer Cell class that link,
// unlink, alias, globalize, wrap (through a direct helper, exercising
// the context-sensitive summaries) and remotely ship random object
// graphs. The generator is deterministic in its *rand.Rand, never
// dereferences a possibly-null field, and never passes remote
// references — every generated program compiles and runs to
// completion, so a failure is always a real finding.

package testkit

import (
	"fmt"
	"math/rand"
	"strings"
)

// fuzzHeader is the fixed part of every generated program. Sink's
// methods only read scalar fields of their (deep-copied) arguments;
// echo bounces its argument graph back through the return path.
const fuzzHeader = `class Cell { Cell a; Cell b; int v; }
remote class Sink {
	int eat(Cell x) {
		return x.v;
	}
	int pair(Cell x, Cell y) {
		return x.v + y.v;
	}
	Cell echo(Cell x) {
		return x;
	}
}
class Main {
	static Cell g;
	static Cell wrap(Cell c) {
		Cell o = new Cell();
		o.a = c;
		return o;
	}
`

// GenMiniJP emits one random program: 3-7 always-non-null Cell
// variables and 8-27 statements mixing field links (builds arbitrary
// graphs, including cycles and cross-variable sharing), null stores
// (kills links — strong-update bait), stores to a static (escape
// bait), direct wrap calls (context-sensitivity bait) and remote
// sends of one or two roots plus remote echoes.
func GenMiniJP(rng *rand.Rand) string {
	nv := 3 + rng.Intn(5)
	var b strings.Builder
	b.WriteString(fuzzHeader)
	b.WriteString("\tstatic int main() {\n")
	b.WriteString("\t\tSink s = new Sink();\n")
	b.WriteString("\t\tint r = 0;\n")
	v := func() string { return fmt.Sprintf("v%d", rng.Intn(nv)) }
	for i := 0; i < nv; i++ {
		fmt.Fprintf(&b, "\t\tCell v%d = new Cell();\n", i)
	}
	field := func() string {
		if rng.Intn(2) == 0 {
			return "a"
		}
		return "b"
	}
	ns := 8 + rng.Intn(20)
	for i := 0; i < ns; i++ {
		switch p := rng.Intn(100); {
		case p < 35: // link two graphs
			fmt.Fprintf(&b, "\t\t%s.%s = %s;\n", v(), field(), v())
		case p < 45: // sever a link
			fmt.Fprintf(&b, "\t\t%s.%s = null;\n", v(), field())
		case p < 50: // leak to a global
			fmt.Fprintf(&b, "\t\tMain.g = %s;\n", v())
		case p < 60: // box through the direct helper
			fmt.Fprintf(&b, "\t\t%s = Main.wrap(%s);\n", v(), v())
		case p < 75: // ship one root
			fmt.Fprintf(&b, "\t\tr = r + s.eat(%s);\n", v())
		case p < 85: // ship two roots in one message
			fmt.Fprintf(&b, "\t\tr = r + s.pair(%s, %s);\n", v(), v())
		default: // bounce a graph through the return path
			fmt.Fprintf(&b, "\t\t%s = s.echo(%s);\n", v(), v())
		}
	}
	b.WriteString("\t\treturn r;\n\t}\n}\n")
	return b.String()
}
