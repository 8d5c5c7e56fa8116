package lang

import (
	"math/rand"
	"strings"
	"testing"
)

// vocabulary is what tokenSoups builds sources from: the spelling of
// every punctuation mark, operator and keyword, and a few identifiers
// and literals.
func vocabulary() []string {
	v := []string{"x", "y", "Foo", "main", "0", "1", "2.5", `"s"`}
	for _, s := range spelling {
		if s != "" {
			v = append(v, s)
		}
	}
	return v
}

// tokenSoups is 2000 random sources of up to 40 words of the
// vocabulary each.
func tokenSoups() []string {
	vocab := vocabulary()
	rng := rand.New(rand.NewSource(7))
	srcs := make([]string, 2000)
	for i := range srcs {
		n := rng.Intn(40)
		var b strings.Builder
		for j := 0; j < n; j++ {
			b.WriteString(vocab[rng.Intn(len(vocab))])
			b.WriteByte(' ')
		}
		srcs[i] = b.String()
	}
	return srcs
}

// mutations is 500 copies of a valid program, each with one word
// replaced by another word, a brace, a keyword or nothing.
func mutations() []string {
	base := `
class Node { int v; Node next; Node(Node n) { this.next = n; } }
remote class F {
	Node id(Node x) { return x; }
	static void main() {
		F f = new F();
		Node h = null;
		for (int i = 0; i < 3; i = i + 1) { h = new Node(h); }
		Node g = f.id(h);
		Node use = g.next;
	}
}`
	words := strings.Fields(base)
	rng := rand.New(rand.NewSource(11))
	repl := []string{"", "}", "(", "int", "null", "zzz", "=", "class"}
	srcs := make([]string, 500)
	for i := range srcs {
		mut := append([]string(nil), words...)
		mut[rng.Intn(len(mut))] = repl[rng.Intn(len(repl))]
		srcs[i] = strings.Join(mut, " ")
	}
	return srcs
}

// parseAndCheck runs the front end on src and fails t on a panic.
func parseAndCheck(t *testing.T, src string) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("panic on %q: %v", src, r)
		}
	}()
	if f, err := Parse(src); err == nil {
		_, _ = Check(f) // must not panic either
	}
}

// TestParserNeverPanics: random token soup assembled from the
// language's own vocabulary, which holds every kind of token, must
// produce errors, never panics.
func TestParserNeverPanics(t *testing.T) {
	seen := map[TokKind]bool{}
	for _, w := range vocabulary() {
		toks, err := Lex(w)
		if err != nil || len(toks) != 2 {
			t.Fatalf("vocabulary word %q lexes to %v, %v; want one token", w, toks, err)
		}
		seen[toks[0].Kind] = true
	}
	for k := TokEOF + 1; k < tokBad; k++ {
		if !seen[k] {
			t.Errorf("token kind %d (%q) is missing from the vocabulary", k, spelling[k])
		}
	}
	for _, src := range tokenSoups() {
		parseAndCheck(t, src)
	}
}

// TestCheckerNeverPanicsOnMutations: take a valid program and corrupt
// single tokens; Parse/Check must fail cleanly.
func TestCheckerNeverPanicsOnMutations(t *testing.T) {
	for _, src := range mutations() {
		parseAndCheck(t, src)
	}
}

// TestFirstErrorInSourceOrder pins which error Parse reports. The
// parser pulls tokens as the grammar needs them, so the error nearest
// the top of the file wins whether it is lexical or syntactic; a bad
// character further down is only reported once everything before it
// parses. (When the whole file was lexed before parsing began, a
// lexical error anywhere hid every syntax error above it.)
func TestFirstErrorInSourceOrder(t *testing.T) {
	lines := func(ls ...string) string { return strings.Join(ls, "\n") }
	for _, tc := range []struct {
		name, src string
		pos       Pos
		msg       string
	}{
		{"lex error only",
			lines("class A {", "  int x;", "  int f() { return x # 1; }", "}"),
			Pos{3, 22}, `unexpected character "#"`},
		{"lex error is the current token",
			lines("class A {", "  int f() { return 1 + `; }", "}"),
			Pos{2, 24}, "unexpected character \"`\""},
		{"syntax error only",
			lines("class A {", "  int f( { return 1; }", "}"),
			Pos{2, 10}, `expected type, found "{"`},
		{"syntax error above a bad character",
			lines("class A {", "  int f( { return 1; }", "  int g() {", "    int a = 1;", "    int b = 2;",
				"    int c = 3;", "    int d = 4;", "    return a;", "  } @", "}"),
			Pos{2, 10}, `expected type, found "{"`},
		{"bad character above a syntax error",
			lines("class A {", "  int f() { return 1 @ 2; }", "  int g( { }", "}"),
			Pos{2, 22}, `unexpected character "@"`},
		{"bad character already peeked at when an earlier token fails",
			lines("class A {", "  void f() {", "    Foo[] @ x;", "  }", "}"),
			Pos{3, 9}, `unexpected token "]"`},
		{"unterminated comment hides the missing brace",
			lines("class A {", "  int x;", "/* never closed"),
			Pos{3, 1}, "unterminated block comment"},
	} {
		_, err := Parse(tc.src)
		e, ok := err.(*Error)
		if !ok {
			t.Errorf("%s: Parse error = %v, want a *lang.Error", tc.name, err)
			continue
		}
		if e.Pos != tc.pos || e.Msg != tc.msg {
			t.Errorf("%s: got %s: %s, want %s: %s", tc.name, e.Pos, e.Msg, tc.pos, tc.msg)
		}
	}
}
