package lint

import (
	"go/ast"
	"go/types"

	"mlpeering/internal/lint/analysis"
)

// RNGClock flags ambient nondeterminism sources in internal/
// packages: calls to math/rand (and math/rand/v2) package-level
// functions — the process-global, auto-seeded RNG — and calls to
// time.Now. Every random draw in the pipeline must come from an
// explicitly seeded *rand.Rand stream (topology.Builder.StageRNG,
// the churn schedule's per-epoch sources) so that worlds and
// schedules replay byte-identically; every timestamp must derive
// from the deterministic schedule, not the wall clock. Seeded-stream
// constructors (rand.New, rand.NewSource, ...) and *rand.Rand
// methods are always fine. cmd/ and _test.go timing code are out of
// jurisdiction. Deliberate wall-clock or global-RNG use
// (live protocol timing, telemetry) carries //mlplint:clock or
// //mlplint:rng with a reason.
var RNGClock = &analysis.Analyzer{
	Name: "rngclock",
	Doc:  "flags math/rand global functions and time.Now in internal packages",
	Run:  runRNGClock,
}

// rngConstructors are the seeded-stream entry points of math/rand and
// math/rand/v2 that are always allowed.
var rngConstructors = map[string]bool{
	"New": true, "NewSource": true, "NewZipf": true,
	"NewPCG": true, "NewChaCha8": true,
}

func runRNGClock(pass *analysis.Pass) error {
	if internalName(pass.Pkg.Path()) == pass.Pkg.Path() {
		return nil
	}
	for _, file := range pass.Files {
		w := newWaivers(pass.Fset, file)
		walkStack(file, func(stack []ast.Node, n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
				return true // methods (e.g. *rand.Rand) are seeded streams
			}
			switch fn.Pkg().Path() {
			case "math/rand", "math/rand/v2":
				if !rngConstructors[fn.Name()] && !w.check(pass, stack, call, ruleRNG) {
					pass.Reportf(call.Pos(), "rand.%s uses the process-global RNG: draw from a seeded *rand.Rand stream (StageRNG / schedule seed) or waive with //mlplint:rng <reason>", fn.Name())
				}
			case "time":
				if fn.Name() == "Now" && !w.check(pass, stack, call, ruleClock) {
					pass.Reportf(call.Pos(), "time.Now in an internal package: derive timestamps from the deterministic schedule or waive with //mlplint:clock <reason>")
				}
			}
			return true
		})
	}
	return nil
}
