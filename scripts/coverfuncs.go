//go:build ignore

// Command coverfuncs reads two coverage profiles in the text format of
// `go tool covdata textfmt` — one from the production recipes, one from
// `go test -coverpkg` — and prints every function of the module that
// has at least one statement and that the production profile never
// entered, marking with "test" those the test profile entered. Empty
// functions (interface marker methods such as lang's stmtNode) have no
// statement and drop out. Files of the bench module and of
// internal/testkit, whose helpers no non-test file may import, are
// skipped.
//
// Run it from the module root:
//
//	go run scripts/coverfuncs.go prod.txt test.txt
//
// scripts/cover-prod.sh (make cover-prod) writes both profiles.
package main

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"sort"
	"strconv"
	"strings"
)

const module = "cormi/"

// block is one coverage block: its source span and statement count.
type block struct {
	startLine, startCol, endLine, endCol int
	stmts                                int
}

// profile maps a file (import path form) to its blocks and their hit
// counts.
type profile map[string]map[block]int

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: go run scripts/coverfuncs.go PROD.txt TEST.txt")
		os.Exit(2)
	}
	prod, test := read(os.Args[1]), read(os.Args[2])

	// The test pass links every package of the module, so its profile
	// names every file, including those of a binary no recipe ran.
	var files []string
	for f := range test {
		if !strings.HasPrefix(f, module+"bench/") && !strings.HasPrefix(f, module+"internal/testkit/") {
			files = append(files, f)
		}
	}
	sort.Strings(files)
	total, never, reached := 0, 0, 0
	for _, file := range files {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, strings.TrimPrefix(file, module), nil, parser.SkipObjectResolution)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			from, to := fset.Position(fd.Pos()), fset.Position(fd.End())
			stmts, testHits := within(test[file], from, to)
			if stmts == 0 {
				continue
			}
			total++
			if _, hits := within(prod[file], from, to); hits > 0 {
				continue
			}
			never++
			mark := ""
			if testHits > 0 {
				mark = "  test"
				reached++
			}
			fmt.Printf("%s:%d\t%s.%s%s\n", strings.TrimPrefix(file, module), from.Line, f.Name.Name, funcName(fd), mark)
		}
	}
	fmt.Printf("%d of %d functions with statements never entered in production; %d of them entered by go test, %d by nothing\n",
		never, total, reached, never-reached)
}

// within sums the statements and hit counts of the blocks that start
// inside [from, to].
func within(blocks map[block]int, from, to token.Position) (stmts, hits int) {
	for b, n := range blocks {
		if after(b.startLine, b.startCol, from) && !after(b.startLine, b.startCol, to) {
			stmts += b.stmts
			hits += n
		}
	}
	return stmts, hits
}

// after reports whether line:col is at or past p.
func after(line, col int, p token.Position) bool {
	return line > p.Line || line == p.Line && col >= p.Column
}

// funcName renders a declaration as Recv.Name or Name.
func funcName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
			continue
		case *ast.IndexExpr:
			t = x.X
			continue
		case *ast.IndexListExpr:
			t = x.X
			continue
		case *ast.Ident:
			return x.Name + "." + fd.Name.Name
		}
		return fd.Name.Name
	}
}

// read parses a text-format profile: a mode line, then one
// "file:l1.c1,l2.c2 stmts count" line per block.
func read(path string) profile {
	fh, err := os.Open(path)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer fh.Close()
	p := profile{}
	sc := bufio.NewScanner(fh)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "mode:") || line == "" {
			continue
		}
		colon := strings.LastIndex(line, ":")
		fields := strings.Fields(line[colon+1:])
		var b block
		var count int
		if len(fields) != 3 {
			fmt.Fprintf(os.Stderr, "%s: bad line %q\n", path, line)
			os.Exit(1)
		}
		if _, err := fmt.Sscanf(fields[0], "%d.%d,%d.%d", &b.startLine, &b.startCol, &b.endLine, &b.endCol); err != nil {
			fmt.Fprintf(os.Stderr, "%s: bad span in %q\n", path, line)
			os.Exit(1)
		}
		b.stmts, _ = strconv.Atoi(fields[1])
		count, _ = strconv.Atoi(fields[2])
		file := line[:colon]
		if p[file] == nil {
			p[file] = map[block]int{}
		}
		p[file][b] += count
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return p
}
