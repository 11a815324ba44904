package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"maps"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// modulePath is the import path of the module root; benchmark/ is the
// nested module modulePath+"/benchmark", so one prefix maps every import
// path of both modules to its directory.
const modulePath = "github.com/mitosis-project/mitosis-sim"

// keep lists the declarations TestNoTestOnlyDeclarations lets stay in
// production packages although only tests reference them, each with the
// reason it stays. An entry that production code references again, or that
// no longer exists, fails the test, so the list cannot go stale.
var keep = map[string]string{
	"internal/hw.Machine.LLCResident": "the lines each socket's page-table line cache holds, which no production API reports: " +
		"workloads' set-up equivalence test compares them",
	"internal/kernel.Process.GuestSpace": "a VM process's guest page table, which no production API exposes: " +
		"BenchmarkMicroWalk/2d reads its guest root and translate's shootdown test descends it",
	"internal/mem.PageCache.Cached": "the page-cache pool's occupancy, which no production API reports: " +
		"the kernel, core and root tests check the §5.1 reservation through it",
}

// TestNoTestOnlyDeclarations type-checks every non-test file of the module
// and of benchmark/ and fails on any package-level func, method, type, var
// or const that no non-test file references: code only tests call belongs
// in an export_test.go, or in a test-support package (a package whose name
// ends in "test", such as internal/pvops/pvopstest) when tests of other
// packages need it. References inside the declaration itself and in
// blank-var assertions (`var _ I = (*T)(nil)`) do not count, and neither
// do references from test-support packages. Exempt: the root package's
// exported API (api.txt guards it), main and init, methods that satisfy an
// interface, constants of an iota group, and test-support packages, which
// no production file may import.
func TestNoTestOnlyDeclarations(t *testing.T) {
	l := loadModule(t)
	for _, imp := range l.testSupportImports() {
		t.Errorf("production file imports a test-support package: %s", imp)
	}
	stale := maps.Clone(keep)
	var got []string
	for _, d := range l.unreferenced() {
		if _, ok := keep[d.key]; ok {
			delete(stale, d.key)
			continue
		}
		got = append(got, fmt.Sprintf("%s (%s)", d.key, d.pos))
	}
	if len(got) > 0 {
		t.Errorf("production packages hold %d declaration(s) that only tests reference; delete each, or move it into its package's export_test.go or into a test-support package:\n\t%s",
			len(got), strings.Join(got, "\n\t"))
	}
	for key := range stale {
		t.Errorf("allowlist entry %s is stale: production code references it, or it is gone", key)
	}
}

var (
	loadOnce sync.Once
	loaded   *loader
	loadErr  error
)

// loadModule type-checks the module and benchmark/ once for every guard in
// this package.
func loadModule(t *testing.T) *loader {
	t.Helper()
	loadOnce.Do(func() {
		root, err := filepath.Abs(filepath.Join("..", ".."))
		if err != nil {
			loadErr = err
			return
		}
		loaded = newLoader(root)
		loadErr = loaded.loadAll()
	})
	if loadErr != nil {
		t.Fatal(loadErr)
	}
	return loaded
}

// loader type-checks the module's packages from their non-test files and
// imports everything else from compiler export data.
type loader struct {
	root  string
	fset  *token.FileSet
	std   types.Importer
	pkgs  map[string]*pkg // by import path, module packages only
	order []*pkg          // in load order
}

type pkg struct {
	path  string
	rel   string // directory relative to the module root, "." for the root
	types *types.Package
	files []*ast.File
	info  *types.Info
}

// testSupport reports whether the package is a test-support package.
func (p *pkg) testSupport() bool { return strings.HasSuffix(p.types.Name(), "test") }

func newLoader(root string) *loader {
	fset := token.NewFileSet()
	return &loader{root: root, fset: fset, std: importer.ForCompiler(fset, "gc", nil), pkgs: map[string]*pkg{}}
}

// Import implements types.Importer.
func (l *loader) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return l.std.Import(path)
	}
	p, err := l.load(path)
	if err != nil {
		return nil, err
	}
	return p.types, nil
}

// loadAll loads every package directory under the root.
func (l *loader) loadAll() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != l.root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(path, 0)
		if err != nil {
			if _, ok := err.(*build.NoGoError); ok {
				return nil
			}
			return err
		}
		if len(bp.GoFiles) == 0 {
			return nil
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		imp := modulePath
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		_, err = l.load(imp)
		return err
	})
}

// load type-checks one module package (once) from its non-test files.
func (l *loader) load(path string) (*pkg, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, modulePath), "/")
	if rel == "" {
		rel = "."
	}
	dir := filepath.Join(l.root, filepath.FromSlash(rel))
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	p := &pkg{path: path, rel: rel, info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.files = append(p.files, f)
	}
	conf := types.Config{Importer: l}
	if p.types, err = conf.Check(path, l.fset, p.files, p.info); err != nil {
		return nil, fmt.Errorf("type-checking %s: %v", path, err)
	}
	l.pkgs[path] = p
	l.order = append(l.order, p)
	return p, nil
}

// testSupportImports lists "package: import path" for every test-support
// package a production package imports.
func (l *loader) testSupportImports() []string {
	var out []string
	for _, p := range l.order {
		if p.testSupport() {
			continue
		}
		for _, imp := range p.types.Imports() {
			if strings.HasSuffix(imp.Name(), "test") {
				out = append(out, p.rel+": "+imp.Path())
			}
		}
	}
	return out
}

// decl is one checked package-level declaration.
type decl struct {
	key      string // package dir, receiver and name: "internal/hw.Machine.Access"
	pos      string // file:line
	from, to token.Pos
}

// unreferenced returns the checked declarations no counting reference
// reaches, sorted by key.
func (l *loader) unreferenced() []decl {
	satisfies := l.interfaceMethods()
	decls := map[types.Object]decl{}
	var skip []span // blank-var assertions and method receivers
	for _, p := range l.order {
		if p.testSupport() {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if d.Recv != nil {
						skip = append(skip, span{d.Recv.Pos(), d.Recv.End()})
					}
					obj := p.info.Defs[d.Name].(*types.Func)
					if d.Recv == nil && (d.Name.Name == "main" || d.Name.Name == "init") ||
						l.rootAPI(p, d.Name.Name, recvName(obj)) || satisfies[obj] {
						continue
					}
					decls[obj] = l.newDecl(p, obj, d)
				case *ast.GenDecl:
					iota := d.Tok == token.CONST && usesIota(d)
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							obj := p.info.Defs[s.Name]
							if !l.rootAPI(p, s.Name.Name, "") {
								decls[obj] = l.newDecl(p, obj, s)
							}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name == "_" {
									skip = append(skip, span{s.Pos(), s.End()})
									continue
								}
								if iota || l.rootAPI(p, n.Name, "") {
									continue
								}
								obj := p.info.Defs[n]
								decls[obj] = l.newDecl(p, obj, s)
							}
						}
					}
				}
			}
		}
	}
	used := map[types.Object]bool{}
	for _, p := range l.order {
		if p.testSupport() {
			continue
		}
		for id, obj := range p.info.Uses {
			obj = origin(obj)
			d, ok := decls[obj]
			if !ok || used[obj] || (id.Pos() >= d.from && id.Pos() < d.to) || inAny(skip, id.Pos()) {
				continue
			}
			used[obj] = true
		}
	}
	var out []decl
	for obj, d := range decls {
		if !used[obj] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

type span struct{ from, to token.Pos }

func inAny(spans []span, pos token.Pos) bool {
	for _, s := range spans {
		if pos >= s.from && pos < s.to {
			return true
		}
	}
	return false
}

func (l *loader) newDecl(p *pkg, obj types.Object, n ast.Node) decl {
	d := l.declOf(p, recvName(obj), obj)
	d.from, d.to = n.Pos(), n.End()
	return d
}

// declOf keys obj by its package, its owner (a receiver's or struct's
// type name, "" for none) and its name, and records its position.
func (l *loader) declOf(p *pkg, owner string, obj types.Object) decl {
	name := p.rel
	if name == "." {
		name = "mitosis"
	}
	name += "."
	if owner != "" {
		name += owner + "."
	}
	pos := l.fset.Position(obj.Pos())
	rel, _ := filepath.Rel(l.root, pos.Filename)
	return decl{key: name + obj.Name(), pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line)}
}

// rootAPI reports whether a declaration belongs to the root package's
// exported API, the surface api.txt guards.
func (l *loader) rootAPI(p *pkg, name, recv string) bool {
	return p.path == modulePath && token.IsExported(name) && (recv == "" || token.IsExported(recv))
}

// recvName returns the receiver's type name of a method, "" otherwise.
func recvName(obj types.Object) string {
	f, ok := obj.(*types.Func)
	if !ok {
		return ""
	}
	recv := f.Type().(*types.Signature).Recv()
	if recv == nil {
		return ""
	}
	t := recv.Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return ""
}

// origin maps an instantiated generic function, method or field to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// usesIota reports whether a const group is an iota enumeration.
func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}

// interfaceMethods returns the methods through which a named type of a
// production package, or a pointer to one, satisfies an interface with
// methods: one declared in a production package (named or literal), in a
// package it imports, or error. A method promoted from an embedded field
// counts for the type that declares it.
func (l *loader) interfaceMethods() map[*types.Func]bool {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var scan func(*types.Package)
	scan = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		for _, name := range tp.Scope().Names() {
			if tn, ok := tp.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			scan(imp)
		}
	}
	var named []types.Type
	for _, p := range l.order {
		if p.testSupport() {
			continue
		}
		scan(p.types)
		for _, tv := range p.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				ifaces = append(ifaces, it)
			}
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() && !types.IsInterface(tn.Type()) {
				named = append(named, tn.Type(), types.NewPointer(tn.Type()))
			}
		}
	}
	out := map[*types.Func]bool{}
	for _, t := range named {
		ms := types.NewMethodSet(t)
		for _, it := range ifaces {
			if !types.Implements(t, it) {
				continue
			}
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				if sel := ms.Lookup(m.Pkg(), m.Name()); sel != nil {
					out[sel.Obj().(*types.Func).Origin()] = true
				}
			}
		}
	}
	return out
}
