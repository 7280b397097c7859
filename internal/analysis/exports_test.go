package analysis

import (
	"fmt"
	"go/types"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// keepExports lists the exported functions and methods under internal/
// that stay although no non-test code calls them, each with its
// reason. Keys are "import/path.Func" or "import/path.Type.Method".
var keepExports = map[string]string{
	"rnascale/internal/mpi.Comm.Send":           "the MPI substitution's documented point-to-point surface (PAPER.md, DESIGN.md)",
	"rnascale/internal/mpi.Comm.Recv":           "the MPI substitution's documented point-to-point surface (PAPER.md, DESIGN.md)",
	"rnascale/internal/journal.VerifyInclusion": "the client side of the inclusion proofs GET /api/runs/{id}/proof serves",
	"rnascale/internal/journal.RecordLeaf":      "the client side of the inclusion proofs GET /api/runs/{id}/proof serves",
	"rnascale/internal/cloud.Provider.Running":  "EC2's DescribeInstances view; the release invariant that core's and pilot's pins assert (no VM left running) reads it from outside cloud",
	"rnascale/internal/seq.ReadSet.Validate":    "the read-set invariant (even pairing, valid reads) that the simdata, preprocess and assembler tests assert on their outputs",
}

// shippedModule is the module's non-test sources, loaded and
// type-checked once per test binary: TestModuleShipsClean and
// TestNoTestOnlyExports share the load.
type shippedModule struct {
	pkgs   []*Package
	loader *Loader
	root   string
}

var loadShipped = sync.OnceValues(func() (shippedModule, error) {
	root, err := ModuleRoot(".")
	if err != nil {
		return shippedModule{}, err
	}
	pkgs, loader, err := LoadModuleOptions(root, LoadOptions{})
	return shippedModule{pkgs, loader, root}, err
})

// loadShippedModule returns the shared load, failing t on an error.
func loadShippedModule(t *testing.T) ([]*Package, *Loader, string) {
	t.Helper()
	m, err := loadShipped()
	if err != nil {
		t.Fatal(err)
	}
	return m.pkgs, m.loader, m.root
}

// funcKey names a function or concrete method the way keepExports
// does, or returns "" for an interface method or a non-function.
func funcKey(obj types.Object) string {
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return ""
	}
	fn = fn.Origin()
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || types.IsInterface(named) {
		return ""
	}
	return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
}

// usedFuncs adds every function and method non-test code in pkgs
// refers to.
func usedFuncs(pkgs []*Package, used map[string]bool) {
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			if k := funcKey(obj); k != "" {
				used[k] = true
			}
		}
	}
}

// interfaceTypes returns every named interface declared in pkgs or in
// any package they import, transitively, plus error.
func interfaceTypes(pkgs []*Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					ifaces = append(ifaces, it)
				}
			}
		}
		for _, imp := range tp.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.Types)
	}
	return ifaces
}

// satisfiesInterface reports whether m's receiver type, or a pointer
// to it, implements an interface that declares a method named like m.
func satisfiesInterface(m *types.Func, ifaces []*types.Interface) bool {
	recv := m.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	ptr := types.NewPointer(recv)
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == m.Name() && (types.Implements(recv, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// TestNoTestOnlyExports fails on any exported function or method under
// internal/ that no non-test code of this module or of the bench
// module refers to, unless keepExports lists it. Methods that satisfy
// an interface are exempt: their callers go through the interface. A
// keepExports entry that is no longer needed fails the test too, the
// way a stale //rnavet:allow fails lint.
func TestNoTestOnlyExports(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks both modules")
	}
	pkgs, _, root := loadShippedModule(t)
	// bench/ is a module of its own that imports internal/ packages.
	bench, _, err := LoadModuleOptions(filepath.Join(root, "bench"), LoadOptions{Focus: []string{"rnascale/bench/..."}})
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	usedFuncs(pkgs, used)
	usedFuncs(bench, used)
	ifaces := interfaceTypes(pkgs)

	var unused []string
	needed := map[string]bool{}
	for _, p := range pkgs {
		if !strings.Contains(p.Path+"/", "/internal/") {
			continue
		}
		for id, obj := range p.Info.Defs {
			fn, ok := obj.(*types.Func)
			if !ok || !fn.Exported() {
				continue
			}
			k := funcKey(fn)
			if k == "" || used[k] {
				continue
			}
			if fn.Type().(*types.Signature).Recv() != nil && satisfiesInterface(fn, ifaces) {
				continue
			}
			if _, ok := keepExports[k]; ok {
				needed[k] = true
				continue
			}
			pos := p.Fset.Position(id.Pos())
			rel, _ := filepath.Rel(root, pos.Filename)
			unused = append(unused, fmt.Sprintf("%s:%d: %s", rel, pos.Line, k))
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but only tests call it: delete it, unexport it, or list it in keepExports with a reason", u)
	}
	var stale []string
	for k := range keepExports {
		if !needed[k] {
			stale = append(stale, k)
		}
	}
	sort.Strings(stale)
	for _, k := range stale {
		t.Errorf("stale keepExports entry %s: it has a non-test caller or no longer exists — remove the entry", k)
	}
}
