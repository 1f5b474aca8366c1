package lint_test

import (
	"testing"

	"mlpeering/internal/lint"
	"mlpeering/internal/lint/linttest"
)

func TestFrozen(t *testing.T) {
	diags, _ := linttest.Run(t, "testdata", lint.Frozen, "frozenfix")
	// Five store forms in mutate, two alias writes, one reasonless
	// waiver, a literal and a forwarded builder result outside a
	// builder; builder, value-copy, pointer-slot, closure and waived
	// cases are silent.
	if got, want := len(diags), 10; got != want {
		t.Errorf("live diagnostics = %d, want %d", got, want)
	}
}

func TestFrozenCrossPackage(t *testing.T) {
	// frozenuse imports frozentypes; the type annotations of Snap and
	// View must be visible through Pass.Module.
	diags, _ := linttest.Run(t, "testdata", lint.Frozen, "frozenuse")
	if got, want := len(diags), 2; got != want {
		t.Errorf("live diagnostics = %d, want %d", got, want)
	}
}

func TestGuardedBy(t *testing.T) {
	diags, _ := linttest.Run(t, "testdata", lint.GuardedBy, "guardedfix")
	// bad, badAfterUnlock, badClosure, plus one reasonless waiver;
	// lock/defer/early-exit/*Locked/constructor cases are silent.
	if got, want := len(diags), 4; got != want {
		t.Errorf("live diagnostics = %d, want %d", got, want)
	}
}

func TestAllocFree(t *testing.T) {
	// The fixture's z_test.go carries an annotated allocating
	// function with no want comments: any finding there — i.e. any
	// jurisdiction leak into _test.go files — fails the want match.
	diags, _ := linttest.Run(t, "testdata", lint.AllocFree, "allocfreefix")
	if got, want := len(diags), 11; got != want {
		t.Errorf("live diagnostics = %d, want %d", got, want)
	}
}

func TestWaivedDiagnosticsSurfaced(t *testing.T) {
	// Reasoned waivers suppress the live finding but surface a
	// Waived diagnostic carrying the audited reason, so mlplint
	// -json can report the full exception set.
	_, waived := linttest.Run(t, "testdata", lint.AllocFree, "allocfreefix")
	if len(waived) != 1 {
		t.Fatalf("waived diagnostics = %d (%v), want 1", len(waived), waived)
	}
	if want := "waived (allocfree): doubling growth amortizes to 0 allocs/op"; waived[0].Message != want {
		t.Errorf("waived message = %q, want %q", waived[0].Message, want)
	}
}

func TestFrozenPublished(t *testing.T) {
	// Row and Cold from Snap, Plain itself, Row again from Res;
	// Value's Plain is behind a value field, and time.Location is
	// outside the load.
	diags, _ := linttest.Run(t, "testdata", lint.Frozen, "frozenpub")
	if got, want := len(diags), 4; got != want {
		t.Errorf("live diagnostics = %d, want %d", got, want)
	}
}

func TestMemo(t *testing.T) {
	// Two writes, an address-take, a keyed and a positional literal
	// (two fields); the named builders and reads are silent.
	diags, _ := linttest.Run(t, "testdata", lint.Frozen, "memofix")
	if got, want := len(diags), 6; got != want {
		t.Errorf("live diagnostics = %d, want %d", got, want)
	}
}
