package analysis

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTree materializes a file tree under a temp dir and returns its
// root.
func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for name, content := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// awkwardModule is a small module exercising the package shapes the
// loader must not trip over: a test-only package (no non-test Go
// files), a package with a build-tagged-out file, and a normal
// package depending on it.
func awkwardModule(t *testing.T) string {
	return writeTree(t, map[string]string{
		"go.mod": "module awkward\n\ngo 1.22\n",
		"root.go": `package awkward

import "awkward/tagged"

// Use keeps the dependency on tagged live.
func Use() int { return tagged.Value() }
`,
		"tagged/tagged.go": `package tagged

// Value is the only symbol the active build sees.
func Value() int { return 1 }
`,
		"tagged/excluded.go": `//go:build never

package tagged

func hidden() int { return 2 }
`,
		"testonly/only_test.go": `package testonly

import "testing"

func TestNothing(t *testing.T) {}
`,
	})
}

// TestLoadModuleAwkwardShapes pins the loader's behavior on the
// shapes real modules grow: test-only packages are skipped (tests are
// out of scope), build-tagged-out files never reach the parser, and
// everything else loads.
func TestLoadModuleAwkwardShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	root := awkwardModule(t)
	pkgs, _, err := LoadModuleOptions(root, LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	byPath := map[string]*Package{}
	for _, p := range pkgs {
		byPath[p.Path] = p
	}
	if _, ok := byPath["awkward"]; !ok {
		t.Errorf("package awkward not loaded; have %v", paths(pkgs))
	}
	tagged, ok := byPath["awkward/tagged"]
	if !ok {
		t.Fatalf("package awkward/tagged not loaded; have %v", paths(pkgs))
	}
	if len(tagged.Files) != 1 {
		t.Errorf("awkward/tagged loaded %d files; the //go:build never file must be excluded", len(tagged.Files))
	}
	if _, ok := byPath["awkward/testonly"]; ok {
		t.Error("test-only package awkward/testonly must be skipped, not loaded")
	}
}

// TestLoadModuleFocus pins -pkg semantics end to end on the awkward
// module: focusing on tagged selects tagged plus its reverse
// dependency (the root package), while testonly stays out.
func TestLoadModuleFocus(t *testing.T) {
	if testing.Short() {
		t.Skip("shells out to go list")
	}
	root := awkwardModule(t)
	pkgs, _, err := LoadModuleOptions(root, LoadOptions{Focus: []string{"tagged"}})
	if err != nil {
		t.Fatal(err)
	}
	got := paths(pkgs)
	want := []string{"awkward", "awkward/tagged"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("focus on tagged loaded %v, want %v", got, want)
	}

	if _, _, err := LoadModuleOptions(root, LoadOptions{Focus: []string{"nosuch"}}); err == nil {
		t.Error("focusing on a nonexistent package must fail loudly, not analyze nothing")
	}
}

// TestMissingExportDataDegrades type-checks a package whose imports
// cannot be resolved: the loader must return a clear error naming the
// missing export data, not panic.
func TestMissingExportDataDegrades(t *testing.T) {
	loader := NewLoader(map[string]string{})
	_, err := loader.loadDir(filepath.Join("testdata", "src", "wallclock"), "fixture/broken")
	if err == nil {
		t.Fatal("want a load error when export data is missing")
	}
	if !strings.Contains(err.Error(), "no export data") {
		t.Errorf("error should name the missing export data, got: %v", err)
	}
}

// TestMatchFocusPattern covers the accepted pattern spellings.
func TestMatchFocusPattern(t *testing.T) {
	const mod = "rnascale"
	cases := []struct {
		importPath, pat string
		want            bool
	}{
		{"rnascale/internal/journal", "internal/journal", true},
		{"rnascale/internal/journal", "./internal/journal", true},
		{"rnascale/internal/journal", "rnascale/internal/journal", true},
		{"rnascale/internal/journal", "internal/...", true},
		{"rnascale/internal/journal", "internal/journal/...", true}, // like go list, "/..." includes the root
		{"rnascale/internal/journal/sub", "internal/journal/...", true},
		{"rnascale/internal/journal", "internal/jour", false},
		{"rnascale/internal/journal", "./...", true},
		{"rnascale/cmd/rnavet", "internal/...", false},
	}
	for _, tc := range cases {
		if got := matchFocusPattern(tc.importPath, mod, tc.pat); got != tc.want {
			t.Errorf("matchFocusPattern(%q, %q) = %v, want %v", tc.importPath, tc.pat, got, tc.want)
		}
	}
}

func paths(pkgs []*Package) []string {
	var out []string
	for _, p := range pkgs {
		out = append(out, p.Path)
	}
	return out
}
