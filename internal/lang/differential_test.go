package lang_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"unicode/utf8"

	"cormi/internal/apps/lu"
	"cormi/internal/apps/micro"
	"cormi/internal/apps/superopt"
	"cormi/internal/apps/webserver"
	"cormi/internal/heap/gen"
	"cormi/internal/lang"
	"cormi/internal/testkit"
)

// corpus is the MiniJP the repository compiles: the bundled examples,
// the application sketches, the generated corpora of the compile
// benchmark and of TestCompileStageAllocs, and the soundness fuzzer's
// programs for a fixed list of seeds; and operatorPairs.
func corpus(tb testing.TB) map[string]string {
	srcs := map[string]string{
		"lu":            lu.Src,
		"superopt":      superopt.Src,
		"webserver":     webserver.Src,
		"linkedlist":    micro.LinkedListSrc,
		"arraybench":    micro.ArrayBenchSrc,
		"gen-1-30x10":   gen.Generate(gen.Config{Seed: 1, Components: 30, FuncsPerComponent: 10}).Source,
		"gen-2026-36x8": gen.Generate(gen.Config{Seed: 2026, Components: 36, FuncsPerComponent: 8}).Source,
	}
	srcs["operator-pairs"] = operatorPairs()
	files, err := filepath.Glob("../../examples/minijp/*.jp")
	if err != nil || len(files) == 0 {
		tb.Fatalf("no examples: %v", err)
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		srcs[filepath.Base(f)] = string(b)
	}
	for seed := int64(1); seed <= 40; seed++ {
		srcs[fmt.Sprintf("fuzzgen-%d", seed)] = testkit.GenMiniJP(rand.New(rand.NewSource(seed)))
	}
	return srcs
}

// operatorPairs is a class whose method has a statement for each
// ordered pair of binary operators, `x = -a op1 b op2 !c;` and
// `x = a op1 (b op2 c);`: it parses to a different AST whenever the
// precedence or associativity of any operator changes.
func operatorPairs() string {
	ops := []string{"||", "&&", "==", "!=", "<", "<=", ">", ">=", "+", "-", "*", "/", "%"}
	var b strings.Builder
	b.WriteString("class Ops {\n\tvoid f() {\n")
	for _, op1 := range ops {
		for _, op2 := range ops {
			fmt.Fprintf(&b, "\t\tx = -a %s b %s !c;\n\t\tx = a %s (b %s c);\n", op1, op2, op1, op2)
		}
	}
	b.WriteString("\t}\n}\n")
	return b.String()
}

// TestParseDifferential holds Parse to the parser it replaced
// (parse_ref_test.go): on every source of the corpus both build the
// same AST, positions included, and on every source the robustness
// tests generate both build the same AST or fail with the same error.
func TestParseDifferential(t *testing.T) {
	for name, src := range corpus(t) {
		if _, err := lang.Parse(src); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if d := differ(src); d != "" {
			t.Errorf("%s: %s", name, d)
		}
	}
	for _, srcs := range [][]string{lang.TokenSoups(), lang.Mutations()} {
		for _, src := range srcs {
			if d := differ(src); d != "" {
				t.Errorf("%q: %s", src, d)
			}
		}
	}
}

// FuzzParse: on any ASCII source, Parse and the reference parser build
// the same AST or fail with the same error. Other sources are only
// parsed: identifiers became ASCII-only, so there the two may differ.
func FuzzParse(f *testing.F) {
	for _, src := range corpus(f) {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		if !isASCII(src) {
			_, _ = lang.Parse(src)
			return
		}
		if d := differ(src); d != "" {
			t.Fatal(d)
		}
	})
}

func isASCII(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] >= utf8.RuneSelf {
			return false
		}
	}
	return true
}

// differ parses src with both parsers and describes how the results
// differ, or returns "".
func differ(src string) string {
	got, gotErr := lang.Parse(src)
	want, wantErr := lang.RefParse(src)
	switch {
	case gotErr == nil && wantErr == nil:
		if g, w := digest(got), digest(want); g != w {
			return fmt.Sprintf("AST differs from the reference:\n got %s\nwant %s", g, w)
		}
		return ""
	case gotErr != nil && wantErr != nil:
		var g, w *lang.Error
		if !errors.As(gotErr, &g) || !errors.As(wantErr, &w) || *g != *w {
			return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
		}
		return ""
	}
	return fmt.Sprintf("error %v, reference %v", gotErr, wantErr)
}

// digest writes out the whole AST of f: every node's type and
// position, and every name, flag, operator and literal value it holds.
func digest(f *lang.File) string {
	var b strings.Builder
	for _, c := range f.Classes {
		fmt.Fprintf(&b, "(class %v %s remote=%t extends=%q", c.Pos, c.Name, c.Remote, c.Extends)
		for _, fd := range c.Fields {
			fmt.Fprintf(&b, " (field %v %s static=%t %s)", fd.Pos, fd.Name, fd.Static, typeX(fd.TypeX))
		}
		for _, m := range c.Methods {
			fmt.Fprintf(&b, " (method %v %s static=%t ctor=%t %s", m.Pos, m.Name, m.Static, m.IsCtor, typeX(m.RetX))
			for _, p := range m.Params {
				fmt.Fprintf(&b, " (param %v %s %s)", p.Pos, p.Name, typeX(p.TypeX))
			}
			if m.Body != nil {
				stmt(&b, m.Body)
			}
			b.WriteString(")")
		}
		b.WriteString(")\n")
	}
	return b.String()
}

func typeX(t lang.TypeExpr) string { return fmt.Sprintf("%v:%s", t.Pos, t) }

func stmt(b *strings.Builder, s lang.Stmt) {
	if s == nil {
		b.WriteString(" nil")
		return
	}
	switch s := s.(type) {
	case *lang.Block:
		fmt.Fprintf(b, " (block %v", s.Pos)
		for _, x := range s.Stmts {
			stmt(b, x)
		}
	case *lang.VarDecl:
		fmt.Fprintf(b, " (var %v %s %s", s.Pos, s.Name, typeX(s.TypeX))
		expr(b, s.Init)
	case *lang.If:
		fmt.Fprintf(b, " (if %v", s.Pos)
		expr(b, s.Cond)
		stmt(b, s.Then)
		stmt(b, s.Else)
	case *lang.While:
		fmt.Fprintf(b, " (while %v", s.Pos)
		expr(b, s.Cond)
		stmt(b, s.Body)
	case *lang.For:
		fmt.Fprintf(b, " (for %v", s.Pos)
		stmt(b, s.Init)
		expr(b, s.Cond)
		expr(b, s.Post)
		stmt(b, s.Body)
	case *lang.Return:
		fmt.Fprintf(b, " (return %v", s.Pos)
		expr(b, s.Value)
	case *lang.ExprStmt:
		fmt.Fprintf(b, " (exprstmt %v", s.Pos)
		expr(b, s.X)
	default:
		panic(fmt.Sprintf("digest: statement %T", s))
	}
	b.WriteString(")")
}

func expr(b *strings.Builder, e lang.Expr) {
	if e == nil {
		b.WriteString(" nil")
		return
	}
	fmt.Fprintf(b, " (%T %v", e, e.ExprPos())
	switch e := e.(type) {
	case *lang.IntLit:
		fmt.Fprintf(b, " %d", e.Value)
	case *lang.DoubleLit:
		fmt.Fprintf(b, " %b", e.Value)
	case *lang.BoolLit:
		fmt.Fprintf(b, " %t", e.Value)
	case *lang.StringLit:
		fmt.Fprintf(b, " %q", e.Value)
	case *lang.NullLit, *lang.This:
	case *lang.Ident:
		fmt.Fprintf(b, " %s", e.Name)
	case *lang.FieldAccess:
		fmt.Fprintf(b, " %s", e.Name)
		expr(b, e.X)
	case *lang.Index:
		expr(b, e.X)
		expr(b, e.I)
	case *lang.Call:
		fmt.Fprintf(b, " %s", e.Name)
		expr(b, e.Recv)
		for _, a := range e.Args {
			expr(b, a)
		}
	case *lang.New:
		fmt.Fprintf(b, " %s", e.ClassName)
		for _, a := range e.Args {
			expr(b, a)
		}
	case *lang.NewArray:
		fmt.Fprintf(b, " %s dims=%d", typeX(e.ElemX), e.Dims)
		for _, l := range e.Lens {
			expr(b, l)
		}
	case *lang.Binary:
		fmt.Fprintf(b, " %s", e.Op)
		expr(b, e.L)
		expr(b, e.R)
	case *lang.Unary:
		fmt.Fprintf(b, " %s", e.Op)
		expr(b, e.X)
	case *lang.Assign:
		expr(b, e.LHS)
		expr(b, e.RHS)
	default:
		panic(fmt.Sprintf("digest: expression %T", e))
	}
	b.WriteString(")")
}
