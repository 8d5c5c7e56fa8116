package cormi

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestProductionSurface holds the packages under internal/ to what
// production reaches. Every exported top-level identifier there, and
// every exported method of a type declared there, must be used from a
// root file: a non-test file of this module or of the bench module,
// or any file under bench/, its tests included (the benchmark is
// frozen with them). A use inside the declaration itself (recursion,
// a method's receiver) does not count, and neither does a re-export in
// the root package (`X = pkg.Y`, a var, const or alias) unless the root
// name X itself has a use outside its declaration: a facade entry
// nothing names reaches nothing. A method also counts as
// reached when it implements a reached method of an interface (one a
// root file calls through a module interface, or any method of a
// standard interface a root file names), or when fmt or encoding/json
// call it by name.
//
// Helpers that only tests use belong in those tests, or in
// internal/testkit when several packages' tests share them; testkit is
// exempt, and no non-test file may import it.
//
// The same scan holds the option structs under internal/ (a struct
// type named *Config, *Options, *Policy or *Spec) to the knobs a root
// file turns: every exported field must be set by one, in a composite
// literal, an assignment or by taking its address. A default filled in
// under an if that tests the same field (`if c.N <= 0 { c.N = 64 }`)
// is not a setting. A knob only tests set is deleted, or allowlisted
// in unsetAllow with the ROADMAP item that decides it.
//
// The scan type-checks both modules from source with go/types (a name
// alone would confuse a dead method with a live one of the same name)
// and reads the standard library from `go list -deps -export` data.
func TestProductionSurface(t *testing.T) {
	s := &surface{
		t:         t,
		fset:      token.NewFileSet(),
		exports:   map[string]string{},
		pkgs:      map[string]*types.Package{},
		used:      map[types.Object]bool{},
		set:       map[types.Object]bool{},
		reexports: map[types.Object]types.Object{},
	}
	s.std = importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := s.exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	})
	s.load(".", false)
	s.load("bench", true)
	for root, target := range s.reexports {
		if s.used[root] {
			s.used[target] = true
		}
	}

	problems := s.testkitImports
	declared := map[string]bool{}
	for _, obj := range s.declared {
		key := surfaceKey(obj)
		declared[key] = true
		if _, ok := surfaceAllow[key]; !ok && !s.reached(obj) {
			pos := s.fset.Position(obj.Pos())
			problems = append(problems, fmt.Sprintf("unreached: %s (%s:%d)", strings.TrimPrefix(key, "cormi/internal/"), s.rel(pos.Filename), pos.Line))
		}
	}
	for key := range surfaceAllow {
		if !declared[key] {
			problems = append(problems, "surfaceAllow names a declaration that is gone: "+key)
		}
	}
	if len(problems) > 0 {
		sort.Strings(problems)
		t.Errorf("%d problems; delete the code, move it into the tests that use it, or allowlist it with a reason in surfaceAllow:\n\t%s",
			len(problems), strings.Join(problems, "\n\t"))
	}

	var unset []string
	knobs := map[string]bool{}
	for _, k := range s.knobs {
		knobs[k.key] = true
		if _, ok := unsetAllow[k.key]; !ok && !s.set[k.field] {
			pos := s.fset.Position(k.field.Pos())
			unset = append(unset, fmt.Sprintf("unset: %s (%s:%d)", strings.TrimPrefix(k.key, "cormi/internal/"), s.rel(pos.Filename), pos.Line))
		}
	}
	for key := range unsetAllow {
		if !knobs[key] {
			unset = append(unset, "unsetAllow names a field that is gone: "+key)
		}
	}
	if len(unset) > 0 {
		sort.Strings(unset)
		t.Errorf("%d option fields no root file sets; delete the knob, or allowlist it in unsetAllow with the ROADMAP item that decides it:\n\t%s",
			len(unset), strings.Join(unset, "\n\t"))
	}
}

const testkitPath = "cormi/internal/testkit"

// surfaceAllow lists the declarations that stay although production
// does not reach them, each with its reason. A key is the package
// path, the receiver type for a method, and the name.
var surfaceAllow = map[string]string{
	"cormi/internal/transport.FaultyNetwork.Partition": "public API: cormi.go's FaultyNetwork documents partitioning the links of Cluster.Network()",
	"cormi/internal/transport.FaultyNetwork.Heal":      "public API: undoes Partition",
	"cormi/internal/rmi.Cluster.Network":               "public API: cormi.go's FaultyNetwork documents reaching the cluster's instance through it",
	"cormi/internal/rmi.WithPlanSkew":                  "test seam: the mode matrix's skew condition and rmi's refusal tests give a node another program's plans",
}

// unsetAllow lists the option fields that stay although no root file
// sets them, each with the item of ROADMAP.md that decides it. A key is
// the package path, the struct type and the field.
var unsetAllow = map[string]string{
	"cormi/internal/core.Options.LinearListRefinement": "ROADMAP item 14: measured against executions, it becomes the default or goes",
	"cormi/internal/core.Options.HeapOpts":             "ROADMAP item 14: the context-insensitive baseline that make verify-precision and core's differential test compare the default against",
	"cormi/internal/heap/gen.Config.Edits":             "ROADMAP item 5: corpus variety for core's reuse-verdict differential test until generated programs run as matrix workloads",
	"cormi/internal/heap/gen.Config.ExtraCalls":        "ROADMAP item 5: as Edits",
}

// byName are the methods fmt and encoding/json call by name.
var byName = map[string]bool{
	"String": true, "Error": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true, "UnmarshalText": true,
}

// knob is one exported field of an option struct, with its key: the
// package path, the struct type and the field, as unsetAllow and the
// report name it.
type knob struct {
	field *types.Var
	key   string
}

type surface struct {
	t       *testing.T
	fset    *token.FileSet
	exports map[string]string // standard package -> export data file
	std     types.Importer
	pkgs    map[string]*types.Package // module packages, checked from source

	declared       []types.Object                // exported objects and methods under internal/
	used           map[types.Object]bool         // what root files refer to
	reexports      map[types.Object]types.Object // root X of `X = pkg.Y` -> Y, used once X is
	knobs          []knob                        // exported fields of option structs under internal/
	set            map[types.Object]bool         // fields root files set
	testkitImports []string
}

// rel names a file relative to the module root, the test's directory.
func (s *surface) rel(path string) string {
	wd, err := os.Getwd()
	if err != nil {
		s.t.Fatal(err)
	}
	if r, err := filepath.Rel(wd, path); err == nil {
		return r
	}
	return path
}

// Import resolves module packages to their source-checked form, so a
// use in one package and a declaration in another are the same object.
func (s *surface) Import(path string) (*types.Package, error) {
	if p, ok := s.pkgs[path]; ok {
		return p, nil
	}
	return s.std.Import(path)
}

type listedPackage struct {
	ImportPath, Dir, Export, ForTest   string
	Standard                           bool
	GoFiles, TestGoFiles, XTestGoFiles []string
}

// load lists the packages of the module in dir with their
// dependencies and checks each module package not checked yet, in
// dependency order. withTests adds the packages' test files, which are
// then root files too.
func (s *surface) load(dir string, withTests bool) {
	args := []string{"list", "-deps", "-export", "-json"}
	if withTests {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(args, "./...")...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		s.t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, stderr.String())
	}
	var listed []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			s.t.Fatal(err)
		}
		if lp.Standard {
			s.exports[lp.ImportPath] = lp.Export
		} else if lp.ForTest == "" && !strings.HasSuffix(lp.ImportPath, ".test") {
			listed = append(listed, lp)
		}
	}
	for _, lp := range listed {
		if s.pkgs[lp.ImportPath] == nil {
			s.check(lp, withTests)
		}
	}
}

func (s *surface) check(lp listedPackage, withTests bool) {
	files := s.parse(lp.Dir, lp.GoFiles)
	for i, f := range files {
		for _, imp := range f.Imports {
			if strings.Trim(imp.Path.Value, `"`) == testkitPath {
				s.testkitImports = append(s.testkitImports, "non-test file imports "+testkitPath+": "+s.rel(filepath.Join(lp.Dir, lp.GoFiles[i])))
			}
		}
	}
	if withTests {
		files = append(files, s.parse(lp.Dir, lp.TestGoFiles)...)
	}
	pkg := s.typeCheck(lp.ImportPath, files)
	s.pkgs[lp.ImportPath] = pkg
	if withTests && len(lp.XTestGoFiles) > 0 {
		s.typeCheck(lp.ImportPath+"_test", s.parse(lp.Dir, lp.XTestGoFiles))
	}
	if strings.HasPrefix(lp.ImportPath, "cormi/internal/") && lp.ImportPath != testkitPath {
		s.declare(pkg)
	}
}

func (s *surface) parse(dir string, names []string) []*ast.File {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(s.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			s.t.Fatal(err)
		}
		files = append(files, f)
	}
	return files
}

// typeCheck checks one package and records what its files use, but
// not a declaration's uses of itself.
func (s *surface) typeCheck(path string, files []*ast.File) *types.Package {
	info := &types.Info{
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	pkg, err := (&types.Config{Importer: s}).Check(path, s.fset, files, info)
	if err != nil {
		s.t.Fatalf("type-checking %s: %v", path, err)
	}
	for _, f := range files {
		s.recordSets(info, f)
		for _, d := range f.Decls {
			deferred := map[*ast.Ident]bool{}
			if path == "cormi" {
				s.recordReexports(info, d, deferred)
			}
			self := map[types.Object]bool{}
			switch d := d.(type) {
			case *ast.FuncDecl:
				self[info.Defs[d.Name]] = true
				if d.Recv != nil {
					ast.Inspect(d.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							self[info.Uses[id]] = true
						}
						return true
					})
				}
			case *ast.GenDecl:
				for _, sp := range d.Specs {
					if ts, ok := sp.(*ast.TypeSpec); ok {
						self[info.Defs[ts.Name]] = true
					}
				}
			}
			ast.Inspect(d, func(n ast.Node) bool {
				id, ok := n.(*ast.Ident)
				if !ok || info.Uses[id] == nil || deferred[id] {
					return true
				}
				obj := info.Uses[id]
				switch o := obj.(type) { // a generic type's methods, not its instances'
				case *types.Func:
					obj = o.Origin()
				case *types.Var:
					obj = o.Origin()
				}
				if !self[obj] {
					s.used[obj] = true
				}
				return true
			})
		}
	}
	return pkg
}

// recordReexports records the re-exports d declares (`X = pkg.Y` with
// Y under internal/) in s.reexports and marks the selector identifiers
// in deferred, so the declaration alone does not count as a use of Y.
func (s *surface) recordReexports(info *types.Info, d ast.Decl, deferred map[*ast.Ident]bool) {
	gd, ok := d.(*ast.GenDecl)
	if !ok {
		return
	}
	note := func(name *ast.Ident, e ast.Expr) {
		sel, ok := e.(*ast.SelectorExpr)
		if !ok {
			return
		}
		target := info.Uses[sel.Sel]
		if target == nil || target.Pkg() == nil || !strings.HasPrefix(target.Pkg().Path(), "cormi/internal/") {
			return
		}
		s.reexports[info.Defs[name]] = target
		deferred[sel.Sel] = true
	}
	for _, sp := range gd.Specs {
		switch sp := sp.(type) {
		case *ast.ValueSpec:
			if len(sp.Values) == len(sp.Names) {
				for i, v := range sp.Values {
					note(sp.Names[i], v)
				}
			}
		case *ast.TypeSpec:
			if sp.Assign.IsValid() {
				note(sp.Name, sp.Type)
			}
		}
	}
}

// recordSets records the struct fields f sets: the keys of its
// composite literals (every field up to the last value of an unkeyed
// one), the fields it assigns or increments unless an enclosing if
// tests the same field, and the fields whose address it takes.
func (s *surface) recordSets(info *types.Info, f *ast.File) {
	var stack []ast.Node
	field := func(e ast.Expr) *types.Var {
		sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
		if !ok {
			return nil
		}
		v, ok := info.Uses[sel.Sel].(*types.Var)
		if !ok || !v.IsField() {
			return nil
		}
		return v.Origin()
	}
	assign := func(e ast.Expr) {
		v := field(e)
		if v == nil {
			return
		}
		for _, n := range stack {
			if is, ok := n.(*ast.IfStmt); ok && mentions(info, is.Cond, v) {
				return // a default, not a setting
			}
		}
		s.set[v] = true
	}
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return false
		}
		stack = append(stack, n)
		switch n := n.(type) {
		case *ast.CompositeLit:
			st, ok := info.TypeOf(n).Underlying().(*types.Struct)
			for i, el := range n.Elts {
				if kv, isKV := el.(*ast.KeyValueExpr); isKV {
					if id, isID := kv.Key.(*ast.Ident); isID {
						if v, isVar := info.Uses[id].(*types.Var); isVar && v.IsField() {
							s.set[v.Origin()] = true
						}
					}
				} else if ok {
					s.set[st.Field(i).Origin()] = true
				}
			}
		case *ast.AssignStmt:
			for _, l := range n.Lhs {
				assign(l)
			}
		case *ast.IncDecStmt:
			assign(n.X)
		case *ast.UnaryExpr:
			if v := field(n.X); n.Op == token.AND && v != nil {
				s.set[v] = true
			}
		}
		return true
	})
}

// mentions reports whether e refers to the field v.
func mentions(info *types.Info, e ast.Expr, v *types.Var) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if u, ok := info.Uses[id].(*types.Var); ok && u.Origin() == v {
				found = true
			}
		}
		return !found
	})
	return found
}

// declare records pkg's exported top-level objects, the exported
// methods of its named types, interfaces included, and the exported
// fields of its option structs.
func (s *surface) declare(pkg *types.Package) {
	for _, name := range pkg.Scope().Names() {
		obj := pkg.Scope().Lookup(name)
		if obj.Exported() {
			s.declared = append(s.declared, obj)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		if st, ok := named.Underlying().(*types.Struct); ok && obj.Exported() && isOption(name) {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() {
					s.knobs = append(s.knobs, knob{f, pkg.Path() + "." + name + "." + f.Name()})
				}
			}
		}
		if it, ok := named.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumExplicitMethods(); i++ {
				if m := it.ExplicitMethod(i); m.Exported() {
					s.declared = append(s.declared, m)
				}
			}
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				s.declared = append(s.declared, m)
			}
		}
	}
}

// reached applies TestProductionSurface's rules to one declaration.
func (s *surface) reached(obj types.Object) bool {
	if s.used[obj] {
		return true
	}
	m, ok := obj.(*types.Func)
	if !ok || m.Type().(*types.Signature).Recv() == nil {
		return false
	}
	if byName[m.Name()] {
		return true
	}
	recv := m.Type().(*types.Signature).Recv().Type()
	if _, ok := recv.Underlying().(*types.Interface); !ok {
		if _, ok := recv.(*types.Pointer); !ok {
			recv = types.NewPointer(recv)
		}
	}
	for used := range s.used {
		var iface *types.Interface
		switch u := used.(type) {
		case *types.Func: // a call through a module interface
			if r := u.Type().(*types.Signature).Recv(); r != nil && u.Name() == m.Name() && u != m && isModule(u.Pkg()) {
				iface, _ = r.Type().Underlying().(*types.Interface)
			}
		case *types.TypeName: // a standard interface a root file names
			if u.Pkg() != nil && !isModule(u.Pkg()) {
				if it, ok := u.Type().Underlying().(*types.Interface); ok && hasMethod(it, m.Name()) {
					iface = it
				}
			}
		}
		if iface != nil && types.Implements(recv, iface) {
			return true
		}
	}
	return false
}

// isOption reports whether a struct type's name makes it an option
// struct, whose exported fields are knobs.
func isOption(name string) bool {
	for _, suf := range []string{"Config", "Options", "Policy", "Spec"} {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

func isModule(p *types.Package) bool {
	return p.Path() == "cormi" || strings.HasPrefix(p.Path(), "cormi/")
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// surfaceKey names obj as the allowlist and the report do.
func surfaceKey(obj types.Object) string {
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				return obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return obj.Pkg().Path() + "." + obj.Name()
}
