package analysis

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureExports builds one loader whose importer can resolve every
// stdlib package the fixtures use.
func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	root, err := ModuleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	listed, err := GoList(root, "time", "math/rand", "sort", "bytes", "fmt", "strings", "io", "encoding/json", "sync", "os")
	if err != nil {
		t.Fatal(err)
	}
	return NewLoader(ExportMap(listed))
}

// fixtures pairs each golden fixture package with the single check
// its golden pins. Running one check per fixture keeps each golden
// focused: it demonstrates both the caught violations and the
// respected allow directives of exactly that check. importPath
// overrides the default fixture/<name> when a check keys on the
// package path (errdrop recognizes journal types by path suffix).
var fixtures = []struct {
	name       string
	check      string
	importPath string
}{
	{name: "wallclock", check: "wallclock"},
	{name: "globalrand", check: "globalrand"},
	{name: "maporder", check: "maporder"},
	{name: "vtimeleak", check: "vtimeleak"},
	{name: "allowbad", check: "globalrand"},
	{name: "goleak", check: "goleak"},
	{name: "lockheld", check: "lockheld"},
	{name: "errdrop", check: "errdrop", importPath: "fixture/errdrop/internal/journal"},
	{name: "metriccard", check: "metriccard"},
}

func TestGoldenFixtures(t *testing.T) {
	loader := fixtureLoader(t)
	for _, fx := range fixtures {
		t.Run(fx.name, func(t *testing.T) {
			dir := filepath.Join("testdata", "src", fx.name)
			importPath := fx.importPath
			if importPath == "" {
				importPath = "fixture/" + fx.name
			}
			pkg, err := loader.loadDir(dir, importPath)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run([]*Package{pkg}, Options{Checks: []string{fx.check}, IOWriter: loader.IOWriter()})
			if err != nil {
				t.Fatal(err)
			}
			abs, err := filepath.Abs(dir)
			if err != nil {
				t.Fatal(err)
			}
			res.Rel(abs)
			var buf bytes.Buffer
			if err := res.WriteText(&buf); err != nil {
				t.Fatal(err)
			}
			goldenPath := filepath.Join("testdata", "golden", fx.name+".golden")
			if *update {
				if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(goldenPath, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatalf("missing golden (run go test -update): %v", err)
			}
			if got := buf.String(); got != string(want) {
				t.Errorf("golden mismatch for %s\n--- got ---\n%s--- want ---\n%s", fx.name, got, want)
			}
		})
	}
}

// TestSimulationClassification pins the two classification paths: the
// explicit fixture directive, and absence of it.
func TestSimulationClassification(t *testing.T) {
	loader := fixtureLoader(t)
	sim, err := loader.loadDir(filepath.Join("testdata", "src", "wallclock"), "fixture/wallclock")
	if err != nil {
		t.Fatal(err)
	}
	if !sim.Simulation {
		t.Error("wallclock fixture should be classified as a simulation package (//rnavet:simulation)")
	}
	plain, err := loader.loadDir(filepath.Join("testdata", "src", "globalrand"), "fixture/globalrand")
	if err != nil {
		t.Fatal(err)
	}
	if plain.Simulation {
		t.Error("globalrand fixture should not be a simulation package")
	}
}

// TestSimOnlyChecksSkipNonSimPackages runs the simulation-only checks
// over a fixture full of wall-clock reads but without the simulation
// directive: nothing may be reported.
func TestSimOnlyChecksSkipNonSimPackages(t *testing.T) {
	loader := fixtureLoader(t)
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join("testdata", "src", "wallclock", "wallclock.go"))
	if err != nil {
		t.Fatal(err)
	}
	stripped := strings.ReplaceAll(string(src), "//rnavet:simulation", "")
	if err := os.WriteFile(filepath.Join(dir, "wallclock.go"), []byte(stripped), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.loadDir(dir, "fixture/notsim")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run([]*Package{pkg}, Options{Checks: []string{"wallclock", "vtimeleak"}})
	if err != nil {
		t.Fatal(err)
	}
	// The package is no longer simulated, so the wallclock allows in
	// the fixture cannot be judged stale either: with the check
	// finding nothing, its directives must stay quiet too? No — a
	// directive that suppresses nothing while its check ran IS stale.
	// Filter those out; assert no wallclock/vtimeleak findings.
	for _, d := range res.Findings {
		if d.Check != AllowCheckName {
			t.Errorf("unexpected finding in non-simulation package: %s", d)
		}
	}
}

// TestAllowRemovalResurfacesDiagnostic strips every allow directive
// from the wallclock fixture and asserts the suppressed diagnostics
// come back — the property that makes shipped allows load-bearing.
func TestAllowRemovalResurfacesDiagnostic(t *testing.T) {
	loader := fixtureLoader(t)
	dir := t.TempDir()
	src, err := os.ReadFile(filepath.Join("testdata", "src", "wallclock", "wallclock.go"))
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(string(src), "\n") {
		// Drop standalone directive lines; truncate trailing ones.
		if i := strings.Index(line, "//rnavet:allow"); i >= 0 {
			if strings.HasPrefix(strings.TrimSpace(line), "//rnavet:allow") {
				continue
			}
			line = strings.TrimRight(line[:i], " \t")
		}
		kept = append(kept, line)
	}
	if err := os.WriteFile(filepath.Join(dir, "wallclock.go"), []byte(strings.Join(kept, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.loadDir(dir, "fixture/wallclock-stripped")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run([]*Package{pkg}, Options{Checks: []string{"wallclock"}})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(res.Findings); got != 5 {
		var buf bytes.Buffer
		res.WriteText(&buf)
		t.Errorf("want 5 wallclock findings after stripping allows, got %d:\n%s", got, buf.String())
	}
}

// TestUnknownCheckRejected pins the -checks validation path.
func TestUnknownCheckRejected(t *testing.T) {
	if _, err := Run(nil, Options{Checks: []string{"nosuch"}}); err == nil {
		t.Error("want error for unknown check name")
	}
}

// TestModuleShipsClean runs the full analyzer over the entire module
// — the same invocation `make lint` uses — and requires zero
// findings. This is the acceptance gate: every true positive in the
// tree is fixed, every legitimate exception carries a live allow
// directive, and no shipped directive is stale.
func TestModuleShipsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	pkgs, loader, root := loadShippedModule(t)
	res, err := Run(pkgs, Options{IOWriter: loader.IOWriter()})
	if err != nil {
		t.Fatal(err)
	}
	res.Rel(root)
	if len(res.Findings) != 0 {
		var buf bytes.Buffer
		res.WriteText(&buf)
		t.Errorf("module is not rnavet-clean:\n%s", buf.String())
	}
	if res.Packages == 0 || res.FilesScanned == 0 {
		t.Errorf("suspiciously empty run: %s", res.Summary())
	}
	// The simulation classifier must have found the core simulation
	// packages; if it ever regresses to zero, the wallclock and
	// vtimeleak checks silently stop guarding anything.
	sims := 0
	for _, p := range pkgs {
		if p.Simulation {
			sims++
		}
	}
	if sims < 5 {
		t.Errorf("only %d simulation packages classified; expected the vclock-dependent core", sims)
	}
}
