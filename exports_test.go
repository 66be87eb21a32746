package cqa

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportReason says why an exported function or method declared under
// internal/ may stay without a caller outside tests.
type exportReason int

const (
	// paperOracle: a definition of the paper that tests use as the
	// reference for the production path.
	paperOracle exportReason = iota + 1
	// testHelper: a helper that tests of several packages share, so it
	// cannot live in one package's _test.go files.
	testHelper
	// probeSymbol: kept alive only by the benchmark's layer probe
	// (bench/layers); ROADMAP item 4 deletes it.
	probeSymbol
)

// exportAllowlist names, as "pkg.Func" or "pkg.Type.Method", the
// exported functions and methods that may lack a non-test caller. It
// only shrinks: TestExportsHaveCallers fails on an entry that gained a
// caller or no longer exists, naming the line to delete.
var exportAllowlist = map[string]exportReason{
	// Definitions of the paper, the references the tests hold the
	// production paths to.
	"attack.Graph.TwoCycle":    paperOracle, // Lemma: a cyclic attack graph has a 2-cycle
	"db.Database.IsConsistent": paperOracle, // consistency: every block a singleton
	"db.TypeTransform":         paperOracle, // Definition 6.3
	"fo.EvalReference":         paperOracle, // the semantics of FO formulas
	"matching.HallCondition":   paperOracle, // Hall's condition behind the matching deciders
	"naive.KeyRelevant":        paperOracle, // key-relevant facts
	"reduction.DropNegated":    paperOracle, // a reduction builder
	"reduction.EncodeDiseq":    paperOracle, // a reduction builder

	// Helpers the tests of several packages share.
	"db.Fact.Equal":                testHelper,
	"db.Interned.Value":            testHelper,
	"db.Relation.AllKey":           testHelper,
	"db.Relation.NumBlocks":        testHelper,
	"gen.FactsText":                testHelper,
	"metrics.LintPrometheus":       testHelper,
	"metrics.PromExposition.Value": testHelper,
	"rewrite.RewriteOpts":          testHelper,
	"schema.NewVarSet":             testHelper,
	"schema.VarSet.Add":            testHelper,
	"schema.VarSet.Equal":          testHelper,

	// What only the benchmark's layer probe calls (ROADMAP item 4).
	"db.Database.SeedInterned":   probeSymbol,
	"db.InternNext":              probeSymbol,
	"delta.Manager.Apply":        probeSymbol,
	"delta.Manager.Quiesce":      probeSymbol,
	"engine.Engine.CertainBatch": probeSymbol,
	"shard.NewSharded":           probeSymbol,
	"shard.Sharded.ApplyDB":      probeSymbol,
	"shard.Sharded.Delete":       probeSymbol,
	"shard.Sharded.Insert":       probeSymbol,
	"shard.Sharded.View":         probeSymbol,
	"shard.View.Union":           probeSymbol,
}

// TestExportsHaveCallers is the ratchet on dead exports: every exported
// function and method declared under internal/ needs a use, resolved by
// types.Object, from a non-test file of internal/, cmd/ or examples/
// outside its own declaration. The benchmark directory does not count:
// a symbol only its probe reaches is allowlisted as a probeSymbol.
// Methods that satisfy an interface are exempt, by type: the interface
// call reaches them without naming them.
func TestExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and the standard library from source")
	}
	u := loadUniverse(t, "internal", "cmd", "examples")
	unused := u.unusedExports()

	for _, name := range sortedKeys(unused) {
		if exportAllowlist[name] == 0 {
			t.Errorf("%s: exported %s has no caller outside tests; delete it, unexport it, move it into a _test.go file, or allowlist it with its reason",
				u.fset.Position(unused[name].Pos()), name)
		}
	}
	for _, name := range sortedKeys(exportAllowlist) {
		if _, ok := unused[name]; !ok {
			t.Errorf("allowlist entry %q names no uncalled export any more; delete its line", name)
		}
	}
}

// universe is the module's non-test code under the loaded roots,
// type-checked as one program: each package is checked once, and the
// packages importing it see the same objects, so a use resolves to the
// object its declaration defines.
type universe struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package // module packages by import path
	decls map[types.Object]*ast.FuncDecl
}

const modulePath = "cqa"

func loadUniverse(t *testing.T, roots ...string) *universe {
	t.Helper()
	fset := token.NewFileSet()
	u := &universe{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs:  make(map[*ast.Ident]types.Object),
			Uses:  make(map[*ast.Ident]types.Object),
			Types: make(map[ast.Expr]types.TypeAndValue),
		},
		pkgs:  make(map[string]*types.Package),
		decls: make(map[types.Object]*ast.FuncDecl),
	}
	for _, root := range roots {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			bp, err := build.ImportDir(path, 0)
			if _, none := err.(*build.NoGoError); none || err == nil && len(bp.GoFiles) == 0 {
				return nil // no package, or a test-only one
			}
			if err != nil {
				return err
			}
			_, err = u.Import(modulePath + "/" + filepath.ToSlash(path))
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return u
}

// Import type-checks a module package from its non-test files, after
// its imports; standard-library packages come from the source importer.
func (u *universe) Import(path string) (*types.Package, error) {
	rel, ok := strings.CutPrefix(path, modulePath+"/")
	if !ok {
		return u.std.Import(path)
	}
	if p, ok := u.pkgs[path]; ok {
		return p, nil
	}
	bp, err := build.ImportDir(filepath.FromSlash(rel), 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(u.fset, filepath.Join(bp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: u}
	p, err := conf.Check(path, u.fset, files, u.info)
	if err != nil {
		return nil, err
	}
	u.pkgs[path] = p
	for _, f := range files {
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok {
				u.decls[u.info.Defs[fd.Name]] = fd
			}
		}
	}
	return p, nil
}

// unusedExports returns the exported functions and methods declared in
// internal/ packages that no loaded file uses outside their own
// declaration, less the methods that satisfy an interface.
func (u *universe) unusedExports() map[string]types.Object {
	used := make(map[types.Object]bool)
	for id, obj := range u.info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok {
			continue
		}
		fn = fn.Origin()
		if fd := u.decls[fn]; fd != nil && fd.Pos() <= id.Pos() && id.Pos() < fd.End() {
			continue // recursion is not a caller
		}
		used[fn] = true
	}
	ifaces := u.interfaces()

	out := make(map[string]types.Object)
	for path, p := range u.pkgs {
		if !strings.HasPrefix(path, modulePath+"/internal/") {
			continue
		}
		scope := p.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					out[p.Name()+"."+name] = obj
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !satisfies(named, m.Name(), ifaces) {
						out[p.Name()+"."+name+"."+m.Name()] = m
					}
				}
			}
		}
	}
	return out
}

// interfaces collects every interface with methods that the loaded
// packages, the standard-library packages they reach, and the loaded
// code's expressions declare or spell out.
func (u *universe) interfaces() []*types.Interface {
	var out []*types.Interface
	add := func(t types.Type) {
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > 0 {
			return // only instances of a generic interface can be implemented
		}
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			out = append(out, it)
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := make(map[*types.Package]bool)
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			walk(imp)
		}
	}
	for _, p := range u.pkgs {
		walk(p)
	}
	for _, tv := range u.info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	return out
}

// satisfies reports whether named or its pointer implements an interface
// that has a method called method.
func satisfies(named *types.Named, method string, ifaces []*types.Interface) bool {
	for _, it := range ifaces {
		has := false
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == method {
				has = true
				break
			}
		}
		if has && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
