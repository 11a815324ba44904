package main

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"maps"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// writeOnlyKeep lists the struct fields TestNoWriteOnlyFields lets stay in
// production packages although non-test code only writes them, each with
// the reason it stays. An entry that production code reads again, or that
// no longer exists, fails the test, so the list cannot go stale.
var writeOnlyKeep = map[string]string{
	"internal/translate.Ctx.Core": "benchmark/layers.go sets it, and only a benchmark change may edit that file: " +
		"ROADMAP item 2 step 1 stops setting it, and the field goes after that",
	"internal/mem.nodeState.scanWords": "TestAllocFreeNoFullRescan pins that an allocation or a free never rescans a node, " +
		"and no production observable shows scan cost: a regression test outranks a counter",
}

// TestNoWriteOnlyFields fails on any struct field of a production package
// that non-test code (benchmark/ included) writes but never reads: a tally
// or a piece of plumbing that only tests look at costs every run and
// belongs in the tests. A write is the left side of an assignment (with
// any operator, through index expressions and parentheses), an increment
// or decrement operand, a composite-literal element, or &x.f passed to a
// sync/atomic Add, Store or Swap function; every other use is a read, and
// a conversion of a struct value reads all of its fields. Uses in test
// files and test-support packages count as neither. Exempt: JSON-tagged
// fields, the exported fields of the root package's exported types
// (api.txt guards them), blank fields and test-support packages.
func TestNoWriteOnlyFields(t *testing.T) {
	l := loadModule(t)
	stale := maps.Clone(writeOnlyKeep)
	var got []string
	for _, f := range l.writeOnlyFields() {
		if _, ok := writeOnlyKeep[f.key]; ok {
			delete(stale, f.key)
			continue
		}
		got = append(got, fmt.Sprintf("%s (%s)", f.key, f.pos))
	}
	if len(got) > 0 {
		t.Errorf("production packages hold %d struct field(s) that non-test code writes but never reads; delete each with its writes, and move the tests that read it onto what production exposes:\n\t%s",
			len(got), strings.Join(got, "\n\t"))
	}
	for key := range stale {
		t.Errorf("allowlist entry %s is stale: production code reads it, or it is gone", key)
	}
}

// fieldScan classifies the uses of every struct field of the production
// packages.
type fieldScan struct {
	fields  map[*types.Var]decl
	anon    []*types.Struct           // one of each distinct unnamed struct type
	canon   map[*types.Var]*types.Var // field of an unnamed struct -> same field of its anon entry
	writes  map[*ast.Ident]bool       // field identifiers in a write position
	written map[*types.Var]bool
	read    map[*types.Var]bool
}

// writeOnlyFields returns the checked struct fields that production code
// writes and never reads, sorted by key.
func (l *loader) writeOnlyFields() []decl {
	s := &fieldScan{
		fields:  map[*types.Var]decl{},
		canon:   map[*types.Var]*types.Var{},
		writes:  map[*ast.Ident]bool{},
		written: map[*types.Var]bool{},
		read:    map[*types.Var]bool{},
	}
	var prod []*pkg
	for _, p := range l.order {
		if !p.testSupport() {
			prod = append(prod, p)
		}
	}
	for _, p := range prod {
		for _, f := range p.files {
			l.structFields(s, p, f)
		}
	}
	for _, p := range prod {
		for _, f := range p.files {
			s.markWrites(p.info, f)
		}
		for id, obj := range p.info.Uses {
			if v, ok := obj.(*types.Var); ok && v.IsField() {
				if s.writes[id] {
					s.written[s.field(v)] = true
				} else {
					s.read[s.field(v)] = true
				}
			}
		}
		// A selector that goes through an embedded field reads it.
		for _, sel := range p.info.Selections {
			t, idx := sel.Recv(), sel.Index()
			for _, i := range idx[:len(idx)-1] {
				st := derefStruct(t)
				if st == nil {
					break
				}
				v := st.Field(i)
				s.read[s.field(v)] = true
				t = v.Type()
			}
		}
	}
	var out []decl
	for v, d := range s.fields {
		if s.written[v] && !s.read[v] {
			out = append(out, d)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].key < out[j].key })
	return out
}

// field maps a field to the one object that stands for it: its generic
// origin, and for a field of an unnamed struct type the same field of the
// first identical type seen, because each spelling of an unnamed struct
// type declares fields of its own.
func (s *fieldScan) field(v *types.Var) *types.Var {
	v = v.Origin()
	if c, ok := s.canon[v]; ok {
		return c
	}
	return v
}

// structFields records the fields of every struct type spelled out in one
// file, each keyed by its package, enclosing type and name:
// "internal/tlb.Stats.Lookups". A field of an anonymous struct nested in a
// field's type takes that field's name as its prefix; one of an anonymous
// struct outside any type declaration takes "struct".
func (l *loader) structFields(s *fieldScan, p *pkg, f *ast.File) {
	named := map[*ast.StructType]string{}  // struct type expression -> its name
	declared := map[*ast.StructType]bool{} // the type a declaration names
	ast.Inspect(f, func(n ast.Node) bool {
		if ts, ok := n.(*ast.TypeSpec); ok {
			if st, ok := ts.Type.(*ast.StructType); ok && ts.Assign == 0 {
				declared[st] = true
			}
			nameStructs(ts.Type, ts.Name.Name, named)
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		typ := p.info.Types[st].Type.(*types.Struct)
		if !declared[st] && s.unify(typ) {
			return true // an earlier identical type declares these fields
		}
		owner, ok := named[st]
		if !ok {
			owner = "struct"
		}
		for i := range typ.NumFields() {
			v := typ.Field(i)
			if _, json := reflect.StructTag(typ.Tag(i)).Lookup("json"); json || v.Name() == "_" || l.rootAPI(p, v.Name(), owner) {
				continue
			}
			s.fields[v] = l.declOf(p, owner, v)
		}
		return true
	})
}

// unify maps the fields of an unnamed struct type onto those of an earlier
// identical one and reports whether there was one; otherwise the type
// becomes the one its later spellings map onto.
func (s *fieldScan) unify(st *types.Struct) bool {
	for _, a := range s.anon {
		if types.Identical(a, st) {
			for i := range st.NumFields() {
				s.canon[st.Field(i)] = a.Field(i)
			}
			return true
		}
	}
	s.anon = append(s.anon, st)
	return false
}

// nameStructs records the name of every struct type a type expression
// spells out: the declared type itself and the anonymous structs nested in
// its fields' types, which take the field's name.
func nameStructs(e ast.Expr, name string, named map[*ast.StructType]string) {
	ast.Inspect(e, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		named[st] = name
		for _, fld := range st.Fields.List {
			for _, id := range fld.Names {
				nameStructs(fld.Type, name+"."+id.Name, named)
			}
		}
		return false
	})
}

// markWrites records the write positions of one file: field identifiers
// in s.writes, the fields a positional composite literal sets in
// s.written, and every field a struct conversion reads in s.read.
func (s *fieldScan) markWrites(info *types.Info, f *ast.File) {
	mark := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				s.writes[x.Sel] = true
			}
			return
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for _, e := range n.Lhs {
				mark(e)
			}
		case *ast.IncDecStmt:
			mark(n.X)
		case *ast.CompositeLit:
			st := derefStruct(info.Types[n].Type) // an elided &T{...} has type *T
			for i, e := range n.Elts {
				if kv, ok := e.(*ast.KeyValueExpr); ok {
					if id, ok := kv.Key.(*ast.Ident); ok {
						s.writes[id] = true
					}
				} else if st != nil {
					s.written[s.field(st.Field(i))] = true
				}
			}
		case *ast.CallExpr:
			if tv, ok := info.Types[n.Fun]; ok && tv.IsType() {
				if len(n.Args) == 1 {
					if st, ok := underStruct(info.Types[n.Args[0]].Type); ok {
						s.readAll(st)
					}
				}
				return true
			}
			if atomicWrite(info, n.Fun) && len(n.Args) > 0 {
				if u, ok := ast.Unparen(n.Args[0]).(*ast.UnaryExpr); ok && u.Op == token.AND {
					mark(u.X)
				}
			}
		}
		return true
	})
}

// readAll marks every field of a struct read, and those of the structs its
// fields hold by value.
func (s *fieldScan) readAll(st *types.Struct) {
	for i := range st.NumFields() {
		v := s.field(st.Field(i))
		if s.read[v] {
			continue
		}
		s.read[v] = true
		if inner, ok := underStruct(v.Type()); ok {
			s.readAll(inner)
		}
	}
}

// atomicWrite reports whether fun is a sync/atomic function that stores:
// an Add, Store or Swap.
func atomicWrite(info *types.Info, fun ast.Expr) bool {
	sel, ok := fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := info.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return false
	}
	name := fn.Name()
	return strings.HasPrefix(name, "Add") || strings.HasPrefix(name, "Store") || strings.HasPrefix(name, "Swap")
}

// underStruct returns t's underlying struct type, if it has one.
func underStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

// derefStruct returns the struct type a selector step goes through,
// seeing through one pointer, or nil.
func derefStruct(t types.Type) *types.Struct {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, _ := t.Underlying().(*types.Struct)
	return st
}
