package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mlpeering/internal/mrt"
	"mlpeering/internal/paths"
)

// PassiveDiffFromReference lets the external scenario test (which needs
// pipeline-built worlds, and pipeline imports core) compare RunPassive
// with the per-row reference.
var PassiveDiffFromReference = passiveDiffFromReference

// WindowCoveredSetters reads e's covered setters off the observation
// store of the miner that closed pw; call it inside the Stream callback.
func WindowCoveredSetters(pw *PassiveWindow, e *IXPEntry) []CoveredSetter {
	return pw.miner.obs.CoveredSetters(e)
}

// WindowLoadLines renders the state the base load builds, as the miner
// that closed pw holds it: one line per path of the path store, in ID
// order, then one per live-table row, in prefix-ID order, naming each
// slot's peer and shape path ID in row order. Call it inside the Stream
// callback.
func WindowLoadLines(pw *PassiveWindow) []string {
	m := pw.miner
	var lines []string
	for id := range m.store.Len() {
		lines = append(lines, fmt.Sprintf("path %d %v", id, m.store.Path(paths.ID(id))))
	}
	for pid, row := range m.live.rows {
		line := fmt.Sprintf("row %d %s", pid, m.live.prefixes[pid])
		for _, s := range row {
			line += fmt.Sprintf(" %d/%d", s.peer, s.g.path)
		}
		lines = append(lines, line)
	}
	return lines
}

// MinerFuzzReplay is one FuzzWindowMiner seed input decoded by the fuzz
// fixture: RunPassiveWindows(Dumps, Updates, Dict, Opts) replays it.
type MinerFuzzReplay struct {
	Name    string
	Dumps   []*mrt.Dump
	Updates []*mrt.BGP4MPMessage
	Dict    *Dictionary
	Opts    WindowOptions
}

// MinerFuzzReplays decodes every input of FuzzWindowMiner's seed corpus,
// in file name order, for tests outside the package.
func MinerFuzzReplays(tb testing.TB) []MinerFuzzReplay {
	tb.Helper()
	fx := newMinerFuzzFixture(tb)
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzWindowMiner", "*"))
	if err != nil || len(files) == 0 {
		tb.Fatalf("no FuzzWindowMiner seed inputs: %v", err)
	}
	var out []MinerFuzzReplay
	for _, f := range files {
		raw, err := os.ReadFile(f)
		if err != nil {
			tb.Fatal(err)
		}
		// A seed file is the "go test fuzz v1" header and one []byte
		// literal.
		_, lit, _ := strings.Cut(strings.TrimSpace(string(raw)), "\n")
		data, err := strconv.Unquote(strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")"))
		if err != nil {
			tb.Fatalf("%s: %v", f, err)
		}
		dumps, updates, count := fx.decode([]byte(data))
		out = append(out, MinerFuzzReplay{
			Name: filepath.Base(f), Dumps: dumps, Updates: updates, Dict: fx.dict,
			Opts: WindowOptions{Start: fx.t0, Window: fx.window, Count: count},
		})
	}
	return out
}
