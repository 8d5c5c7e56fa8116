package lang

import (
	"strings"
	"testing"
)

func mustCheck(t *testing.T, src string) *Program {
	t.Helper()
	f, err := Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := Check(f)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return p
}

func wantErr(t *testing.T, src, frag string) {
	t.Helper()
	f, err := Parse(src)
	if err == nil {
		_, err = Check(f)
	}
	if err == nil {
		t.Fatalf("expected error containing %q, got none", frag)
	}
	if !strings.Contains(err.Error(), frag) {
		t.Fatalf("error %q does not contain %q", err, frag)
	}
}

// lexAll drains the lexer the way the parser pulls it: every token of
// src through the end-of-file token.
func lexAll(src string) ([]Token, error) {
	l := newLexer(src)
	var toks []Token
	for {
		var t Token
		if err := l.next(&t); err != nil {
			return nil, err
		}
		if toks = append(toks, t); t.Kind == TokEOF {
			return toks, nil
		}
	}
}

func TestLexBasics(t *testing.T) {
	toks, err := lexAll(`class Foo { int x; } // comment
/* block
comment */ "str\n" 1 2.5 1e3 <= && !`)
	if err != nil {
		t.Fatal(err)
	}
	var kinds []TokKind
	var texts []string
	for _, tk := range toks {
		kinds = append(kinds, tk.Kind)
		texts = append(texts, tk.Text)
	}
	want := []string{"class", "Foo", "{", "int", "x", ";", "}", "str\n", "1", "2.5", "1e3", "<=", "&&", "!", ""}
	if len(texts) != len(want) {
		t.Fatalf("got %d tokens %v, want %d", len(texts), texts, len(want))
	}
	for i := range want {
		if texts[i] != want[i] {
			t.Fatalf("token %d = %q, want %q", i, texts[i], want[i])
		}
	}
	if kinds[0] != TokClass || kinds[1] != TokIdent || kinds[7] != TokStringLit ||
		kinds[8] != TokIntLit || kinds[9] != TokDoubleLit || kinds[10] != TokDoubleLit {
		t.Fatalf("kinds wrong: %v", kinds)
	}
}

// TestLexErrors pins each lexical error, position included.
// Identifiers are ASCII: any other byte outside a comment or a string
// literal is reported as the whole character it begins.
func TestLexErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		{`"unterminated`, "1:1: unterminated string literal"},
		{"/* unterminated", "1:1: unterminated block comment"},
		{`"bad \q escape"`, `1:1: bad escape \q`},
		{"@", `1:1: unexpected character "@"`},
		{"class A { int µ; }", `1:15: unexpected character "µ"`},
		{"int é;", `1:5: unexpected character "é"`},
		{"class Aé { }", `1:8: unexpected character "é"`},
		{"class A { } ☃", `1:13: unexpected character "☃"`},
		{"class A { }\n\xff", `2:1: unexpected character "\xff"`},
	} {
		if _, err := lexAll(tc.src); err == nil || err.Error() != tc.want {
			t.Errorf("lexing %q = %v, want %s", tc.src, err, tc.want)
		}
	}
	toks, err := lexAll("// µ\n/* é\n */ \"☃\" x")
	if err != nil || len(toks) != 3 || toks[0].Text != "☃" || toks[1].Pos != (Pos{3, 11}) {
		t.Fatalf("UTF-8 in comments and strings: %v, %v", toks, err)
	}
}

const figure2Src = `
class Bar { }
class Foo {
	Bar bar;
	double[][][] a;
	static void main() {
		Foo foo = new Foo();
		foo.bar = new Bar();
		foo.a = new double[2][3][];
	}
}
`

func TestParseAndCheckFigure2(t *testing.T) {
	p := mustCheck(t, figure2Src)
	foo := p.Classes["Foo"]
	if foo == nil || len(foo.Fields) != 2 || len(foo.Methods) != 1 {
		t.Fatalf("Foo parsed wrong: %+v", foo)
	}
	if foo.Fields[1].Type.String() != "double[][][]" {
		t.Fatalf("a type = %s", foo.Fields[1].Type)
	}
	// Allocation sites: Foo, Bar, and two for new double[2][3][]
	// (outer double[][][], middle double[][]; innermost unsized).
	if p.NumAllocSites != 4 {
		t.Fatalf("NumAllocSites = %d, want 4", p.NumAllocSites)
	}
	if len(p.RemoteCalls) != 0 {
		t.Fatal("no remote calls expected")
	}
}

const figure3Src = `
remote class Foo {
	Object1 foo(Object1 a) { return a; }
	static void zoo() {
		Foo me = new Foo();
		Object1 t = new Object1();
		for (int i = 0; i < 100; i = i + 1) {
			t = me.foo(t);
		}
	}
}
class Object1 { }
`

func TestRemoteCallSites(t *testing.T) {
	p := mustCheck(t, figure3Src)
	if len(p.RemoteCalls) != 1 {
		t.Fatalf("remote calls = %d, want 1", len(p.RemoteCalls))
	}
	rc := p.RemoteCalls[0]
	if rc.Name != "foo" || !rc.Remote || rc.SiteID != 0 {
		t.Fatalf("remote call: %+v", rc)
	}
	if rc.Method.QualifiedName() != "Foo.foo" {
		t.Fatalf("resolved method %s", rc.Method.QualifiedName())
	}
}

func TestThisCallsAreLocal(t *testing.T) {
	p := mustCheck(t, `
remote class W {
	void a() { this.b(); b(); }
	void b() { }
	static void go() { W w = new W(); w.a(); }
}`)
	if len(p.RemoteCalls) != 1 {
		t.Fatalf("remote calls = %d, want only w.a()", len(p.RemoteCalls))
	}
}

func TestConstructorsAndInheritance(t *testing.T) {
	p := mustCheck(t, `
class LinkedList {
	LinkedList Next;
	LinkedList(LinkedList n) { this.Next = n; }
}
class Base { int data; }
class Derived1 extends Base { }
class Derived2 extends Base { Derived1 p; }
remote class Work {
	void foo(Base b) { }
	void go() {
		Base b1 = new Derived1();
		Base b2 = new Derived2();
		LinkedList head = null;
		for (int i = 0; i < 100; i = i + 1) {
			head = new LinkedList(head);
		}
	}
}`)
	d1 := p.Classes["Derived1"]
	if d1.Super != p.Classes["Base"] {
		t.Fatal("super not resolved")
	}
	if d1.FieldByName("data") == nil {
		t.Fatal("inherited field not found")
	}
	ll := p.Classes["LinkedList"]
	if ll.Methods[0].IsCtor != true {
		t.Fatal("constructor not detected")
	}
}

func TestStaticsAndBuiltins(t *testing.T) {
	p := mustCheck(t, `
class Page { String body; }
remote class Server {
	static Page cache;
	Page get_page(String url) {
		int h = url.hashCode();
		int l = url.length();
		if (h % 2 == 0) { return cache; }
		Page pg = new Page();
		pg.body = "hello";
		Server.cache = pg;
		return pg;
	}
}`)
	sv := p.Classes["Server"]
	if !sv.Remote || sv.FieldByName("cache") == nil || !sv.FieldByName("cache").Static {
		t.Fatal("static field wrong")
	}
}

func TestArraysAndLength(t *testing.T) {
	mustCheck(t, `
remote class A {
	double sum(double[][] m) {
		double s = 0.0;
		for (int i = 0; i < m.length; i = i + 1) {
			for (int j = 0; j < m[i].length; j = j + 1) {
				s = s + m[i][j];
			}
		}
		return s;
	}
}`)

	mustCheck(t, `
class B {
	static void go() {
		int[] a = new int[10];
		a[0] = 5;
		int x = a[0] + a.length;
		double[][] m = new double[4][4];
		m[1][2] = 3.5;
		double d = m[1][2];
	}
}`)
}

func TestCheckerErrors(t *testing.T) {
	cases := []struct{ src, frag string }{
		{`class A { int x; int x; }`, "duplicate field"},
		{`class A { } class A { }`, "duplicate class"},
		{`class A extends B { }`, "unknown class B"},
		{`class A extends B { } class B extends A { }`, "inheritance cycle"},
		{`class A { void f() { y = 1; } }`, "undefined: y"},
		{`class A { void f() { int x = "s"; } }`, "cannot assign"},
		{`class A { void f() { if (1) { } } }`, "must be boolean"},
		{`class A { int f() { return; } }`, "must return"},
		{`class A { void f() { return 3; } }`, "void method"},
		{`class A { void f() { int x = 1; int x = 2; } }`, "redeclared"},
		{`class A { void f(B b) { } }`, "unknown type B"},
		{`class A { static void f() { this.g(); } void g() { } }`, "this in static"},
		{`class A { void f() { g(1); } void g() { } }`, "takes 0 arguments"},
		{`class A { int y; void f() { y.z = 1; } }`, "field access on non-object"},
		{`class A { void f() { int[] a = new int[2]; a["s"] = 1; } }`, "array index must be int"},
		{`class A { void f() { 3; } }`, "must be a call or assignment"},
		{`class A { void f() { boolean b = 1 && true; } }`, "logical op"},
		{`class A { void f() { int x = 1 % 2.0; } }`, "needs int operands"},
		{`class A { void f() { String s = "a"; int n = s.nope(); } }`, "String has no method"},
	}
	for _, tc := range cases {
		wantErr(t, tc.src, tc.frag)
	}
}

// TestParserErrors pins the whole error text, position included, of
// every place the lexer and the parser report a syntax error (and of a
// few sources the checker rejects).
func TestParserErrors(t *testing.T) {
	for _, tc := range []struct{ src, want string }{
		// lexer.go
		{"class A { }\n/* never closed", "2:1: unterminated block comment"},
		{`class A { double d() { return 1e; } }`, "1:33: malformed exponent"},
		{`class A { void f() { String s = "abc`, "1:33: unterminated string literal"},
		{`class A { void f() { String s = "a\`, "1:33: unterminated escape"},
		{`class A { void f() { String s = "bad \q escape"; } }`, `1:33: bad escape \q`},
		{`class A { int x # }`, `1:17: unexpected character "#"`},
		// parser.go
		{`class A`, `1:8: expected "{", found end of file`},
		{`class A { int x }`, `1:17: expected ";", found "}"`},
		{`class A { void f() { if x } }`, `1:25: expected "(", found "x"`},
		{`class`, "1:6: expected identifier, found end of file"},
		{`class { }`, `1:7: expected identifier, found "{"`},
		{`class A extends { }`, `1:17: expected identifier, found "{"`},
		{`class A { int }`, `1:15: expected identifier, found "}"`},
		{`class A { void f( }`, `1:19: expected type, found "}"`},
		{`class A {`, "1:1: unterminated class A"},
		{`class A { static A() { } }`, "1:11: constructor cannot be static"},
		{`class A { void f() {`, "1:20: unterminated block"},
		{`class A { int f() { return 99999999999999999999; } }`, "1:28: bad int literal 99999999999999999999"},
		{`class A { double f() { return 1e999; } }`, "1:31: bad double literal 1e999"},
		{`class A { void f() { x = ; } }`, `1:26: unexpected token ";"`},
		{`class A { void f() { new void(); } }`, "1:26: expected type after new"},
		{`class A { void f() { A a = new 3(); } }`, "1:32: expected type after new"},
		{`class A { void f() { new int(); } }`, "1:26: cannot construct primitive int"},
		{`class A { void f() { new A; } }`, "1:27: expected ( or [ after new A"},
		{`class A { void f() { int[][] a = new int[][3]; } }`, "1:44: sized dimension after unsized one"},
		// check.go
		{`class A { void f() { int[] a = new int[]; } }`, "1:32: new array needs at least one sized dimension"},
	} {
		f, err := Parse(tc.src)
		if err == nil {
			_, err = Check(f)
		}
		if err == nil || err.Error() != tc.want {
			t.Errorf("Parse/Check(%q) = %v, want %s", tc.src, err, tc.want)
		}
	}
}

func TestTypeAlgebra(t *testing.T) {
	a := &ArrayType{Elem: DoubleType}
	b := &ArrayType{Elem: DoubleType}
	if !TypeEq(a, b) {
		t.Fatal("structural array equality")
	}
	if TypeEq(a, &ArrayType{Elem: IntType}) {
		t.Fatal("distinct arrays equal")
	}
	if !Assignable(DoubleType, IntType) {
		t.Fatal("int should widen to double")
	}
	if Assignable(IntType, DoubleType) {
		t.Fatal("double must not narrow to int")
	}
	if !Assignable(a, NullType) || Assignable(IntType, NullType) {
		t.Fatal("null assignability")
	}
	cd := &ClassDecl{Name: "A"}
	ce := &ClassDecl{Name: "B", Super: cd}
	if !Assignable(&ClassType{Decl: cd}, &ClassType{Decl: ce}) {
		t.Fatal("subclass widening")
	}
	if Assignable(&ClassType{Decl: ce}, &ClassType{Decl: cd}) {
		t.Fatal("downcast allowed")
	}
	if !IsRef(a) || IsRef(IntType) {
		t.Fatal("IsRef")
	}
}

func TestIgnoredReturnDetectableFromAST(t *testing.T) {
	p := mustCheck(t, `
remote class F {
	int f() { return 1; }
	static void go() {
		F me = new F();
		me.f();
		int x = me.f();
	}
}`)
	if len(p.RemoteCalls) != 2 {
		t.Fatalf("remote calls = %d", len(p.RemoteCalls))
	}
}

func TestIncrementDecrementDesugar(t *testing.T) {
	p := mustCheck(t, `
class A {
	int f;
	static int go() {
		int s = 0;
		for (int i = 0; i < 10; i++) {
			s += i;
		}
		int j = 10;
		while (j > 0) { j--; }
		s -= 5;
		A a = new A();
		a.f++;
		int[] arr = new int[3];
		arr[1]++;
		return s + j + a.f + arr[1];
	}
}`)
	if p.Classes["A"] == nil {
		t.Fatal("class missing")
	}
	// Postfix ++ is a statement, not an expression.
	wantErr(t, `class A { static void f() { int x = 0; int y = x++ + 1; } }`, "")
}
