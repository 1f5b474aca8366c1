package core_test

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/churn"
	"mlpeering/internal/core"
	"mlpeering/internal/experiments"
	"mlpeering/internal/mrt"
	"mlpeering/internal/paths"
	"mlpeering/internal/topology"
)

// TestBaseLoadSameAtEveryWidth pins the replay's output to be
// independent of the pool width. The base window's close runs the
// relation seed beside the observation tally and the first link index's
// encoding beside its rows, as wide as GOMAXPROCS allows. A test-scale
// trace of every scenario and each FuzzWindowMiner seed input are
// replayed at GOMAXPROCS 1, 2 and 4. Every run must give the same
// per-window counters, fingerprint, AppendMesh bytes and per-IXP covered
// setters, both the Result's and the observation store's. It must also
// give the same first-window link index: its encoding, every AS row and
// every IXP row. The base load derives one block's shapes beside the
// previous block's fill, so the digest also pins what the load built as
// the first window holds it: the path store's paths in ID order and the
// live table's rows, each slot's peer and shape path ID in row order.
// A one-window replay of the dumps alone must hold exactly what a
// one-stage load makes (loadLines) at every width, so a load that
// derived or filled blocks out of order fails here even where every
// fingerprint holds.
func TestBaseLoadSameAtEveryWidth(t *testing.T) {
	var replays []core.MinerFuzzReplay
	for _, name := range topology.ScenarioNames() {
		cfg := topology.TestConfig()
		cfg.Scenario = name
		ccfg := churn.DefaultConfig(20130501)
		ccfg.Epochs = 6
		ct, err := experiments.BuildChurnTrace(cfg, ccfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		replays = append(replays, core.MinerFuzzReplay{
			Name: name, Dumps: ct.Dumps, Updates: ct.Updates, Dict: ct.Dict,
			Opts: core.WindowOptions{Start: ct.Start, Window: ct.Interval, Count: ct.Epochs},
		})
	}
	replays = append(replays, core.MinerFuzzReplays(t)...)

	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, r := range replays {
		var want []string
		loaded := loadLines(r.Dumps)
		for _, width := range []int{1, 2, 4} {
			runtime.GOMAXPROCS(width)
			if i, g, w := firstDiff(loadOnly(t, r), loaded); i >= 0 {
				t.Fatalf("%s: GOMAXPROCS %d: the base load differs from a one-stage load at line %d:\n got  %.300q\n want %.300q", r.Name, width, i, g, w)
			}
			got := widthDigest(t, r)
			if want == nil {
				want = got
				continue
			}
			if i, g, w := firstDiff(got, want); i >= 0 {
				t.Fatalf("%s: GOMAXPROCS %d differs from GOMAXPROCS 1 at digest line %d:\n got  %.300q\n want %.300q", r.Name, width, i, g, w)
			}
		}
	}
}

// firstDiff returns the index of the first line where got and want
// differ, with both lines ("" past an end), or -1 when they are equal.
func firstDiff(got, want []string) (int, string, string) {
	for i := range max(len(got), len(want)) {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			return i, g, w
		}
	}
	return -1, "", ""
}

// loadOnly replays r's dumps with no updates for one window and returns
// the base load's state as that window holds it.
func loadOnly(t *testing.T, r core.MinerFuzzReplay) []string {
	t.Helper()
	var lines []string
	opts := r.Opts
	opts.Count = 1
	opts.Stream = func(pw *core.PassiveWindow) { lines = core.WindowLoadLines(pw) }
	if _, err := core.RunPassiveWindows(r.Dumps, nil, r.Dict, opts); err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	return lines
}

// loadLines renders, in core.WindowLoadLines' form, what a one-stage load
// of dumps makes: every entry's path interned in entry order, every
// record's prefix numbered at first sight, and each entry's slot appended
// to its prefix's row, or written over its peer's slot in place.
func loadLines(dumps []*mrt.Dump) []string {
	type slot struct {
		peer bgp.ASN
		path paths.ID
	}
	store := paths.NewStore()
	ids := make(map[bgp.Prefix]int)
	var prefixes []bgp.Prefix
	var rows [][]slot
	for _, d := range dumps {
		if d == nil || d.Index == nil {
			continue
		}
		for _, rib := range d.RIBs {
			pid, ok := ids[rib.Prefix]
			if !ok {
				pid = len(prefixes)
				ids[rib.Prefix] = pid
				prefixes, rows = append(prefixes, rib.Prefix), append(rows, nil)
			}
			for _, e := range rib.Entries {
				if e.Attrs == nil {
					continue
				}
				s := slot{d.Index.Peers[e.PeerIndex].ASN, store.InternASPath(e.Attrs.ASPath)}
				if i := slices.IndexFunc(rows[pid], func(o slot) bool { return o.peer == s.peer }); i >= 0 {
					rows[pid][i] = s
				} else {
					rows[pid] = append(rows[pid], s)
				}
			}
		}
	}
	var lines []string
	for id := range store.Len() {
		lines = append(lines, fmt.Sprintf("path %d %v", id, store.Path(paths.ID(id))))
	}
	for pid, row := range rows {
		line := fmt.Sprintf("row %d %s", pid, prefixes[pid])
		for _, s := range row {
			line += fmt.Sprintf(" %d/%d", s.peer, s.path)
		}
		lines = append(lines, line)
	}
	return lines
}

// widthDigest replays r and renders what every window publishes, the
// first window's link index included, one line per item.
func widthDigest(t *testing.T, r core.MinerFuzzReplay) []string {
	t.Helper()
	var lines []string
	add := func(format string, args ...any) { lines = append(lines, fmt.Sprintf(format, args...)) }
	opts := r.Opts
	win := 0
	opts.Stream = func(pw *core.PassiveWindow) {
		res := pw.Materialize()
		add("window %d [%v %v) ann=%d wdr=%d wdr-only=%d live=%d dropped=%+v rels=%d p2p=%d mesh=%d stability=%v fp=%016x",
			win, pw.Start, pw.End, pw.Announced, pw.Withdrawn, pw.WithdrawnOnlyUpdates, pw.LiveRoutes,
			pw.Dropped, pw.RelLinks, pw.P2PRels, pw.MeshLinks, pw.Stability, res.Fingerprint())
		add("window %d mesh %x", win, res.AppendMesh(nil))
		for _, e := range r.Dict.Entries {
			var covered []core.CoveredSetter
			if x := res.PerIXP[e.Name]; x != nil {
				covered = x.Covered
			}
			add("window %d %s covered %+v store %+v", win, e.Name, covered, core.WindowCoveredSetters(pw, e))
		}
		if win == 0 {
			lines = append(lines, core.WindowLoadLines(pw)...)
			x := res.BuildIndex()
			add("index encoded %s", x.Encoded)
			seen := make(map[bgp.ASN]bool)
			for _, l := range x.Links {
				for _, asn := range []bgp.ASN{l.Key.A, l.Key.B} {
					if !seen[asn] {
						seen[asn] = true
						add("index as %d %v", asn, x.ASLinks(asn))
					}
				}
			}
			for _, name := range x.IXPs {
				rows, ok := x.IXPLinks(name)
				add("index ixp %s %v %v", name, ok, rows)
			}
		}
		win++
	}
	if _, err := core.RunPassiveWindows(r.Dumps, r.Updates, r.Dict, opts); err != nil {
		t.Fatalf("%s: %v", r.Name, err)
	}
	if win != opts.Count {
		t.Fatalf("%s: %d windows, want %d", r.Name, win, opts.Count)
	}
	return lines
}
