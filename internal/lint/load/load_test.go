package load_test

import (
	"slices"
	"testing"

	"mlpeering/internal/lint/load"
)

// TestLoadModulePackage exercises the real loader end to end: list,
// parse, and type-check a module package against gc export data, and
// list the module's import graph beyond the pattern.
func TestLoadModulePackage(t *testing.T) {
	m, err := load.Load([]string{"mlpeering/internal/par"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	pkgs := m.Packages
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	p := pkgs[0]
	if p.Path != "mlpeering/internal/par" {
		t.Errorf("path = %q", p.Path)
	}
	if p.Types.Scope().Lookup("Run") == nil {
		t.Errorf("par.Run not found in type-checked scope")
	}
	if len(p.Files) == 0 || len(p.Info.Defs) == 0 {
		t.Errorf("missing syntax or type info: %d files, %d defs", len(p.Files), len(p.Info.Defs))
	}
	if by := m.Importers("mlpeering/internal/par"); !slices.Contains(by, "mlpeering/internal/propagate") {
		t.Errorf("importers of par = %q, want propagate among them", by)
	}
	if imps := m.Imports("mlpeering/internal/core"); !slices.Contains(imps, "mlpeering/internal/bgp") {
		t.Errorf("imports of core = %q, want bgp among them", imps)
	}
}

// TestLoadTransitiveImports pins that a package whose imports span
// both the module and the stdlib type-checks cleanly from export
// data.
func TestLoadTransitiveImports(t *testing.T) {
	m, err := load.Load([]string{"mlpeering/internal/lint"})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(m.Packages) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(m.Packages))
	}
}
