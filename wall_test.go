package mlpeering_test

import (
	"os/exec"
	"slices"
	"strings"
	"testing"
)

// The inference side sees only what the paper's method sees: collector
// archives, looking glasses, the IRR and IXP websites. The world side
// generates and serves those data from the ground truth (topology,
// route propagation, churn) and wires the two together.
var (
	inferencePackages = []string{"bgp", "mrt", "paths", "ixp", "irr", "lg", "relation", "core"}
	worldPackages     = []string{"topology", "propagate", "churn", "collector", "pipeline"}
)

// TestInferenceImportsNoWorldPackage fails when a package of the
// inference side depends, directly or through other packages, on a
// package of the world side: one such import would let inference code
// read the ground truth while every other test still passed. Only
// non-test imports count, as `go list -deps` reports them; a test may
// build a world to feed the inference.
func TestInferenceImportsNoWorldPackage(t *testing.T) {
	const module = "mlpeering/internal/"
	args := []string{"list", "-deps", "-f", "{{.ImportPath}}{{range .Imports}} {{.}}{{end}}"}
	for _, p := range inferencePackages {
		args = append(args, "./internal/"+p)
	}
	out, err := exec.Command("go", args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	imports := make(map[string][]string)
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		imports[f[0]] = f[1:]
	}
	for _, p := range inferencePackages {
		root := module + p
		if _, ok := imports[root]; !ok {
			t.Fatalf("go list did not report %s", root)
		}
		// Breadth first from root, so the chain named is a shortest one.
		from := map[string]string{root: ""}
		queue := []string{root}
		for len(queue) > 0 {
			pkg := queue[0]
			queue = queue[1:]
			if name, ok := strings.CutPrefix(pkg, module); ok && slices.Contains(worldPackages, name) {
				chain := []string{pkg}
				for at := from[pkg]; at != ""; at = from[at] {
					chain = append(chain, at)
				}
				slices.Reverse(chain)
				t.Errorf("inference package %s imports world package %s: %s", p, name, strings.Join(chain, " -> "))
				break
			}
			for _, dep := range imports[pkg] {
				if _, seen := from[dep]; !seen {
					from[dep] = pkg
					queue = append(queue, dep)
				}
			}
		}
	}
}
