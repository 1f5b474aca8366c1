// Package par mirrors the real worker-pool API (internal/par) so the
// lint fixtures can exercise the sharddiscipline and floatorder
// analyzers, which match callees by package-path suffix.
package par

// Run executes tasks 0..n-1, sequentially in this fixture.
func Run(n int, fn func(task int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
