package analysis

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
)

// vclockSuffix identifies the virtual-time substrate; any package
// that depends on it is classified as a simulation package.
const vclockSuffix = "internal/vclock"

// simDirective marks a package as a simulation package explicitly
// (test fixtures cannot import internal/vclock).
const simDirective = "//rnavet:simulation"

// listedPackage is the subset of `go list -json` output the loader
// consumes.
type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
	Deps       []string
	Module     *struct{ Path string }
}

// A Loader parses and type-checks packages against pre-built export
// data. Imports — standard library and module-local alike — are
// resolved through the gc importer from the export files the go tool
// reports, so whole-module analysis needs no source type-checking of
// dependencies and works fully offline.
type Loader struct {
	Fset *token.FileSet

	exports  map[string]string // import path -> export data file
	imp      types.Importer
	ioWriter *types.Interface
}

// NewLoader returns a loader resolving imports from the given export
// map (import path to export-data file, as produced by GoList).
func NewLoader(exports map[string]string) *Loader {
	l := &Loader{Fset: token.NewFileSet(), exports: exports}
	l.imp = importer.ForCompiler(l.Fset, "gc", l.lookup)
	return l
}

func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	if !ok || file == "" {
		return nil, fmt.Errorf("analysis: no export data for %q", path)
	}
	return os.Open(file)
}

// IOWriter returns the io.Writer interface type, or nil if the "io"
// package's export data is unavailable.
func (l *Loader) IOWriter() *types.Interface {
	if l.ioWriter != nil {
		return l.ioWriter
	}
	pkg, err := l.imp.Import("io")
	if err != nil {
		return nil
	}
	obj := pkg.Scope().Lookup("Writer")
	if obj == nil {
		return nil
	}
	iface, _ := obj.Type().Underlying().(*types.Interface)
	l.ioWriter = iface
	return iface
}

// GoList shells out to `go list -deps -export -json` for the given
// patterns, run in dir, and returns the listed packages. The -export
// flag makes the go tool build export data for every listed package,
// which is what lets the loader type-check any package in the module
// from source while importing all of its dependencies pre-compiled.
func GoList(dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-export", "-json=ImportPath,Dir,Export,Standard,GoFiles,Deps,Module", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %s: %v\n%s", strings.Join(patterns, " "), err, errb.String())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&out)
	for dec.More() {
		lp := new(listedPackage)
		if err := dec.Decode(lp); err != nil {
			return nil, fmt.Errorf("analysis: decoding go list output: %v", err)
		}
		pkgs = append(pkgs, lp)
	}
	return pkgs, nil
}

// ExportMap extracts the import-path-to-export-file map from a go
// list result.
func ExportMap(pkgs []*listedPackage) map[string]string {
	m := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			m[p.ImportPath] = p.Export
		}
	}
	return m
}

// LoadOptions configures LoadModuleOptions.
type LoadOptions struct {
	// Patterns are the go list patterns; empty means ./... .
	Patterns []string
	// CacheDir, when non-empty, caches the `go list -deps -export`
	// result on disk keyed on the module's go.mod and source hashes
	// (see GoListCached), so repeated lints skip the go-tool walk.
	CacheDir string
	// Focus, when non-empty, restricts parsing and type-checking to
	// the local packages matching these patterns plus every local
	// package that (transitively) depends on one of them — the
	// reverse-dependency cone a change to those packages can affect.
	// Patterns accept an import path, a module-relative path
	// ("./internal/journal" or "internal/journal"), and a trailing
	// "/..." wildcard.
	Focus []string
}

// LoadModuleOptions loads, parses and type-checks every package
// matched by opts.Patterns in the module containing dir, with optional
// list caching and package focusing. Test files are excluded: the
// checks guard production simulation code, and tests legitimately
// touch wall clocks.
func LoadModuleOptions(dir string, opts LoadOptions) ([]*Package, *Loader, error) {
	patterns := opts.Patterns
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	// "io" rides along so maporder can resolve io.Writer even if no
	// analyzed package depends on it.
	args := append([]string{"io"}, patterns...)
	var listed []*listedPackage
	var err error
	if opts.CacheDir != "" {
		listed, _, err = GoListCached(dir, opts.CacheDir, args...)
	} else {
		listed, err = GoList(dir, args...)
	}
	if err != nil {
		return nil, nil, err
	}
	loader := NewLoader(ExportMap(listed))

	var modulePath string
	for _, lp := range listed {
		if !lp.Standard && lp.Module != nil {
			modulePath = lp.Module.Path
			break
		}
	}

	var locals []*listedPackage
	for _, lp := range listed {
		if !lp.Standard {
			locals = append(locals, lp)
		}
	}
	sort.Slice(locals, func(i, j int) bool { return locals[i].ImportPath < locals[j].ImportPath })
	if len(opts.Focus) > 0 {
		locals, err = focusPackages(locals, modulePath, opts.Focus)
		if err != nil {
			return nil, nil, err
		}
	}

	var pkgs []*Package
	for _, lp := range locals {
		if len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := loader.loadSources(lp.Dir, lp.ImportPath, lp.GoFiles)
		if err != nil {
			return nil, nil, err
		}
		pkg.Simulation = isSimulation(lp, modulePath, pkg.Files)
		pkgs = append(pkgs, pkg)
	}
	return pkgs, loader, nil
}

// focusPackages returns the local packages matching the focus
// patterns plus every local package whose (transitive) dependencies
// include a matched one. go list's Deps field is already transitive,
// so one membership scan closes the reverse-dependency cone.
func focusPackages(locals []*listedPackage, modulePath string, focus []string) ([]*listedPackage, error) {
	selected := map[string]bool{}
	for _, lp := range locals {
		for _, pat := range focus {
			if matchFocusPattern(lp.ImportPath, modulePath, pat) {
				selected[lp.ImportPath] = true
				break
			}
		}
	}
	if len(selected) == 0 {
		return nil, fmt.Errorf("analysis: -pkg %s matches no package in module %s", strings.Join(focus, ","), modulePath)
	}
	var out []*listedPackage
	for _, lp := range locals {
		if selected[lp.ImportPath] {
			out = append(out, lp)
			continue
		}
		for _, d := range lp.Deps {
			if selected[d] {
				out = append(out, lp)
				break
			}
		}
	}
	return out, nil
}

// matchFocusPattern matches one focus pattern against a local import
// path. "rnascale/internal/journal", "internal/journal" and
// "./internal/journal" all name the same package; a trailing "/..."
// also selects everything below it.
func matchFocusPattern(importPath, modulePath, pat string) bool {
	pat = strings.TrimPrefix(pat, "./")
	wild := pat == "..." || strings.HasSuffix(pat, "/...")
	pat = strings.TrimSuffix(pat, "...")
	pat = strings.TrimSuffix(pat, "/")
	if pat == "" || pat == "." {
		return wild // "./..." selects every local package
	}
	for _, full := range []string{pat, modulePath + "/" + pat} {
		if importPath == full {
			return true
		}
		if wild && strings.HasPrefix(importPath, full+"/") {
			return true
		}
	}
	return false
}

// loadDir loads a single directory as one package — the entry point
// golden-fixture tests use. Simulation classification comes from the
// //rnavet:simulation directive alone.
func (l *Loader) loadDir(dir, importPath string) (*Package, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", dir)
	}
	pkg, err := l.loadSources(dir, importPath, names)
	if err != nil {
		return nil, err
	}
	pkg.Simulation = hasSimDirective(pkg.Files)
	return pkg, nil
}

// loadSources parses the named files in dir and type-checks them as
// one package, resolving every import through export data.
func (l *Loader) loadSources(dir, importPath string, fileNames []string) (*Package, error) {
	var files []*ast.File
	for _, name := range fileNames {
		path := filepath.Join(dir, name)
		f, err := parser.ParseFile(l.Fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
	}
	conf := types.Config{Importer: l.imp}
	tpkg, err := conf.Check(importPath, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: type-checking %s: %v", importPath, err)
	}
	return &Package{
		Path:  importPath,
		Dir:   dir,
		Files: files,
		Fset:  l.Fset,
		Types: tpkg,
		Info:  info,
	}, nil
}

// isSimulation reports whether a listed package is subject to the
// simulation-only checks: it is the vclock package, depends on it,
// or carries the explicit directive.
func isSimulation(lp *listedPackage, modulePath string, files []*ast.File) bool {
	vclockPath := modulePath + "/" + vclockSuffix
	if lp.ImportPath == vclockPath {
		return true
	}
	for _, d := range lp.Deps {
		if d == vclockPath {
			return true
		}
	}
	return hasSimDirective(files)
}

// hasSimDirective reports whether any file carries //rnavet:simulation.
func hasSimDirective(files []*ast.File) bool {
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if strings.TrimSpace(c.Text) == simDirective {
					return true
				}
			}
		}
	}
	return false
}

// ModuleRoot walks up from dir to the directory containing go.mod.
func ModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("analysis: no go.mod above %s", dir)
		}
		dir = parent
	}
}
