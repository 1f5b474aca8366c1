package mlpeering_test

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// fuzzDecl matches a fuzz target declaration: func FuzzXxx(f *testing.F).
var fuzzDecl = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)

// TestCIFuzzStepsNameOneTarget checks every `go test … -fuzz <pattern>
// … ./<pkg>` line of the CI workflow: the pattern, read as a regexp the
// way go test reads it, must match exactly one fuzz target in <pkg>'s
// test files. go test given a pattern that matches no target prints a
// warning and PASS, so a misspelled or deleted target would leave a
// fuzz step that explores nothing and never fails.
func TestCIFuzzStepsNameOneTarget(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	steps := 0
	for n, line := range strings.Split(string(data), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 || !strings.Contains(line, " -fuzz ") {
			continue
		}
		steps++
		// ci.yml quotes a pattern in single quotes and never puts a
		// blank inside one.
		args := strings.Fields(line[i:])
		var pattern, pkg string
		for j, a := range args {
			if a == "-fuzz" && j+1 < len(args) {
				pattern = strings.Trim(args[j+1], "'")
			}
			if strings.HasPrefix(a, "./") {
				pkg = a
			}
		}
		if pattern == "" || pkg == "" {
			t.Errorf("ci.yml:%d: no -fuzz pattern or ./package in %q", n+1, line)
			continue
		}
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Errorf("ci.yml:%d: -fuzz %q: %v", n+1, pattern, err)
			continue
		}
		var matched []string
		for _, name := range fuzzTargets(t, pkg) {
			if re.MatchString(name) {
				matched = append(matched, name)
			}
		}
		if len(matched) != 1 {
			t.Errorf("ci.yml:%d: -fuzz %q matches %d fuzz targets in %s %v, want exactly one", n+1, pattern, len(matched), pkg, matched)
		}
	}
	if steps == 0 {
		t.Fatal("ci.yml has no go test -fuzz line")
	}
}

// fuzzTargets returns the names of the fuzz targets declared in the
// _test.go files of the package directory pkg.
func fuzzTargets(t *testing.T, pkg string) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range fuzzDecl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}
