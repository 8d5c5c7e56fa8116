// Package gen produces seeded MiniJP corpora for the analysis
// scalability gates (DESIGN.md §16). A corpus is a deterministic
// function of its Config: the same seed always yields byte-identical
// source, and an entry in Edits changes exactly one function body (a
// salt constant) without moving any call edge. ExtraCalls is the
// structural counterpart: it adds one call edge out of a chosen
// function. Both exist as corpus variety for the reuse-verdict
// differential test (TestReuseVerdictDifferential in
// internal/core/escape_ref_test.go).
//
// Each component k is a self-contained class family (CkNode, remote
// CkSvc, CkApp) whose functions never reference another component, so
// the scheduler must discover exactly Components independent regions.
// Within a component the helpers form a call chain with seeded
// cross-links, a mutually recursive pair (f1/f2), a remote call, and a
// static-field escape — every feature the analysis models.
package gen

import (
	"fmt"
	"math/rand"
	"strings"
)

// Config selects a corpus. Structure (call edges) depends only on
// Seed, Components, FuncsPerComponent, and ExtraCalls; Edits perturbs
// single function bodies without changing structure.
type Config struct {
	Seed              int64
	Components        int
	FuncsPerComponent int
	// Edits bumps the named function's salt constant by the given
	// delta ("CkApp.fi" -> delta). The zero map is the pristine corpus.
	Edits map[string]int
	// ExtraCalls adds one extra call edge (to the component's leaf
	// function) out of each named mid-chain function.
	ExtraCalls map[string]bool
}

// Corpus is a generated program plus its editable-function inventory.
type Corpus struct {
	Source string
	// Funcs lists the app helper functions ("CkApp.fi") in component
	// order — the names Edits and ExtraCalls accept.
	Funcs []string
}

// minFuncs is the smallest chain the component template supports
// (root, recursive pair, one mid, leaf).
const minFuncs = 5

// Generate builds the corpus for cfg. Deterministic: structure is
// drawn from a private PRNG seeded with cfg.Seed only.
func Generate(cfg Config) Corpus {
	if cfg.Components < 1 {
		cfg.Components = 1
	}
	if cfg.FuncsPerComponent < minFuncs {
		cfg.FuncsPerComponent = minFuncs
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var b strings.Builder
	var corpus Corpus
	for k := 0; k < cfg.Components; k++ {
		genComponent(&b, &corpus, cfg, rng, k)
	}
	corpus.Source = b.String()
	return corpus
}

func genComponent(b *strings.Builder, corpus *Corpus, cfg Config, rng *rand.Rand, k int) {
	m := cfg.FuncsPerComponent
	node := fmt.Sprintf("C%dNode", k)
	svc := fmt.Sprintf("C%dSvc", k)
	app := fmt.Sprintf("C%dApp", k)
	name := func(i int) string { return fmt.Sprintf("%s.f%d", app, i) }
	salt := func(i int) int { return 100*k + 7*i + cfg.Edits[name(i)] }
	leaf := m - 1

	fmt.Fprintf(b, "class %s { %s next; int v; }\n", node, node)
	fmt.Fprintf(b, "remote class %s {\n", svc)
	fmt.Fprintf(b, "\tint take(%s n) {\n\t\tint t = 0;\n\t\t%s p = n;\n\t\twhile (p != null) {\n\t\t\tt = t + p.v;\n\t\t\tp = p.next;\n\t\t}\n\t\treturn t;\n\t}\n", node, node)
	fmt.Fprintf(b, "\t%s get() {\n\t\t%s n = new %s();\n\t\tn.v = %d;\n\t\treturn n;\n\t}\n", node, node, node, 100*k+3)
	fmt.Fprintf(b, "}\n")

	fmt.Fprintf(b, "class %s {\n", app)
	fmt.Fprintf(b, "\tstatic %s keep;\n", node)
	for i := 0; i < m; i++ {
		corpus.Funcs = append(corpus.Funcs, name(i))
		switch {
		case i == 0:
			// Root: drives the recursive pair and the chain, parks a
			// node in the static, and exercises the remote boundary.
			fmt.Fprintf(b, "\tstatic int f0(int d) {\n")
			fmt.Fprintf(b, "\t\tint salt = %d;\n", salt(0))
			fmt.Fprintf(b, "\t\t%s s = new %s();\n", svc, svc)
			fmt.Fprintf(b, "\t\t%s n = %s.f1(d + salt);\n", node, app)
			if m > minFuncs {
				fmt.Fprintf(b, "\t\tn.next = %s.f3(d);\n", app)
			}
			fmt.Fprintf(b, "\t\t%s.keep = n;\n", app)
			fmt.Fprintf(b, "\t\tint r = s.take(n);\n")
			fmt.Fprintf(b, "\t\t%s g = s.get();\n", node)
			fmt.Fprintf(b, "\t\treturn r + g.v;\n\t}\n")
		case i == 1 || i == 2:
			// Mutually recursive pair: a direct-call SCC of size 2, so
			// editing either member must invalidate both.
			other := 3 - i
			fmt.Fprintf(b, "\tstatic %s f%d(int d) {\n", node, i)
			fmt.Fprintf(b, "\t\tint salt = %d;\n", salt(i))
			fmt.Fprintf(b, "\t\tif (d > salt) {\n\t\t\treturn %s.f%d(d - 1);\n\t\t}\n", app, other)
			fmt.Fprintf(b, "\t\treturn %s.f%d(d);\n\t}\n", app, leaf)
		case i == leaf:
			// Leaf: the component's only helper allocation site.
			fmt.Fprintf(b, "\tstatic %s f%d(int d) {\n", node, i)
			fmt.Fprintf(b, "\t\t%s n = new %s();\n", node, node)
			fmt.Fprintf(b, "\t\tn.v = d + %d;\n", salt(i))
			fmt.Fprintf(b, "\t\treturn n;\n\t}\n")
		default:
			// Mid-chain: pass-through to the next helper, with a
			// seeded optional cross-link deeper into the chain.
			next := i + 1
			fmt.Fprintf(b, "\tstatic %s f%d(int d) {\n", node, i)
			fmt.Fprintf(b, "\t\tint salt = %d;\n", salt(i))
			fmt.Fprintf(b, "\t\t%s n = %s.f%d(d + salt);\n", node, app, next)
			if cross := i + 2; cross < leaf && rng.Intn(2) == 0 {
				fmt.Fprintf(b, "\t\tn.next = %s.f%d(d);\n", app, cross)
			}
			if cfg.ExtraCalls[name(i)] {
				fmt.Fprintf(b, "\t\tn.next = %s.f%d(d + 1);\n", app, leaf)
			}
			fmt.Fprintf(b, "\t\treturn n;\n\t}\n")
		}
	}
	fmt.Fprintf(b, "}\n")
}
