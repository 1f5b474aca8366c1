package mlpeering_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// Function declarations go test selects by name: fuzz targets for
// -fuzz, tests (and the examples and fuzz targets -run also picks) for
// -run, benchmarks for -bench.
var (
	fuzzDecl  = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	runDecl   = regexp.MustCompile(`(?m)^func ((?:Test|Example|Fuzz)\w*)\(`)
	benchDecl = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(\w+ \*testing\.B\)`)
)

// goTestStep is one `go test` command line of the CI workflow.
type goTestStep struct {
	line int      // 1-based line number in ci.yml
	args []string // the command's fields from "go test" on
	pkg  string   // the package argument, the line's last field
}

// goTestSteps returns every `go test` command line of ci.yml. The
// workflow quotes a pattern in single quotes, never puts a blank inside
// one, and ends each go test line with its package.
func goTestSteps(t *testing.T) []goTestStep {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(".github", "workflows", "ci.yml"))
	if err != nil {
		t.Fatal(err)
	}
	var steps []goTestStep
	for n, line := range strings.Split(string(data), "\n") {
		i := strings.Index(line, "go test ")
		if i < 0 {
			continue
		}
		args := strings.Fields(line[i:])
		steps = append(steps, goTestStep{line: n + 1, args: args, pkg: args[len(args)-1]})
	}
	return steps
}

// flag returns the unquoted value following the flag name, or "".
func (s goTestStep) flag(name string) string {
	for j, a := range s.args[:len(s.args)-1] {
		if a == name {
			return strings.Trim(s.args[j+1], "'")
		}
	}
	return ""
}

// TestCIFuzzStepsNameOneTarget checks every `go test … -fuzz <pattern>
// … ./<pkg>` line of the CI workflow: the pattern, read as a regexp the
// way go test reads it, must match exactly one fuzz target in <pkg>'s
// test files. go test given a pattern that matches no target prints a
// warning and PASS, so a misspelled or deleted target would leave a
// fuzz step that explores nothing and never fails.
func TestCIFuzzStepsNameOneTarget(t *testing.T) {
	steps := 0
	for _, st := range goTestSteps(t) {
		pattern := st.flag("-fuzz")
		if pattern == "" {
			continue
		}
		steps++
		re, err := regexp.Compile(pattern)
		if err != nil {
			t.Errorf("ci.yml:%d: -fuzz %q: %v", st.line, pattern, err)
			continue
		}
		var matched []string
		for _, name := range funcNames(t, st.pkg, fuzzDecl) {
			if re.MatchString(name) {
				matched = append(matched, name)
			}
		}
		if len(matched) != 1 {
			t.Errorf("ci.yml:%d: -fuzz %q matches %d fuzz targets in %s %v, want exactly one", st.line, pattern, len(matched), st.pkg, matched)
		}
	}
	if steps == 0 {
		t.Fatal("ci.yml has no go test -fuzz line")
	}
}

// TestCIRunBenchStepsNameFunctions checks every `go test` line of the CI
// workflow that picks tests with -run '<A|B|…>' or benchmarks with
// -bench '<A|B|…>': each alternative must match at least one test or
// benchmark function of the named package. go test given a pattern that
// matches nothing passes, so a renamed test would leave its step running
// nothing. The patterns '^$' (run nothing) and '.' (run all) are skipped.
func TestCIRunBenchStepsNameFunctions(t *testing.T) {
	checked := 0
	for _, st := range goTestSteps(t) {
		for _, sel := range []struct {
			flag string
			decl *regexp.Regexp
		}{{"-run", runDecl}, {"-bench", benchDecl}} {
			pattern := st.flag(sel.flag)
			if pattern == "" || pattern == "^$" || pattern == "." {
				continue
			}
			if strings.HasSuffix(st.pkg, "...") {
				t.Errorf("ci.yml:%d: %s %q over %s: name one package so the pattern can be checked", st.line, sel.flag, pattern, st.pkg)
				continue
			}
			checked++
			names := funcNames(t, st.pkg, sel.decl)
			// go test matches the part before the first '/' against
			// top-level names; the rest selects subtests.
			top, _, _ := strings.Cut(pattern, "/")
			for _, alt := range strings.Split(top, "|") {
				re, err := regexp.Compile(alt)
				if err != nil {
					t.Errorf("ci.yml:%d: %s alternative %q: %v", st.line, sel.flag, alt, err)
					continue
				}
				if !slices.ContainsFunc(names, re.MatchString) {
					t.Errorf("ci.yml:%d: %s alternative %q matches no function in %s", st.line, sel.flag, alt, st.pkg)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("ci.yml has no go test line with a -run or -bench name pattern")
	}
}

// funcNames returns the names of the functions decl matches in the
// _test.go files of the package directory pkg.
func funcNames(t *testing.T, pkg string, decl *regexp.Regexp) []string {
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
		for _, m := range decl.FindAllSubmatch(src, -1) {
			names = append(names, string(m[1]))
		}
	}
	return names
}
