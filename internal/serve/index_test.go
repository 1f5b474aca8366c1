package serve

import (
	"encoding/json"
	"fmt"
	"maps"
	"net/http"
	"net/url"
	"sort"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/core"
	"mlpeering/internal/ixp"
	"mlpeering/internal/mrt"
	"mlpeering/internal/topology"
)

// The oracle: the bodies as the pre-index gateway produced them — a
// full scan of the link map, a sort, and encoding/json over plain
// DTOs. It shares no code with the append encoder or the link index.

type oracleLink struct {
	A    bgp.ASN  `json:"a"`
	B    bgp.ASN  `json:"b"`
	IXPs []string `json:"ixps"`
}

func oracleSortedKeys[V any](links map[topology.LinkKey]V) []topology.LinkKey {
	keys := make([]topology.LinkKey, 0, len(links))
	for k := range links {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].A != keys[j].A {
			return keys[i].A < keys[j].A
		}
		return keys[i].B < keys[j].B
	})
	return keys
}

func oracleJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("oracle marshal: %v", err)
	}
	return string(b)
}

func oracleMesh(t *testing.T, epoch uint64, r *core.Result) string {
	links := []oracleLink{}
	for _, k := range oracleSortedKeys(r.Links) {
		links = append(links, oracleLink{k.A, k.B, r.Links[k]})
	}
	return oracleJSON(t, struct {
		Epoch       uint64       `json:"epoch"`
		Fingerprint string       `json:"fingerprint"`
		Links       []oracleLink `json:"links"`
	}{epoch, fmt.Sprintf("%016x", r.Fingerprint()), links})
}

func oracleAS(t *testing.T, epoch uint64, r *core.Result, asn bgp.ASN) string {
	links := []oracleLink{}
	for _, k := range oracleSortedKeys(r.Links) {
		if k.A == asn || k.B == asn {
			links = append(links, oracleLink{k.A, k.B, r.Links[k]})
		}
	}
	return oracleJSON(t, struct {
		Epoch uint64       `json:"epoch"`
		ASN   bgp.ASN      `json:"asn"`
		Links []oracleLink `json:"links"`
	}{epoch, asn, links})
}

func oracleLinkLookup(t *testing.T, epoch uint64, r *core.Result, a, b bgp.ASN) string {
	key := topology.MakeLinkKey(a, b)
	ixps, present := r.Links[key]
	if ixps == nil {
		ixps = []string{}
	}
	return oracleJSON(t, struct {
		Epoch   uint64   `json:"epoch"`
		A       bgp.ASN  `json:"a"`
		B       bgp.ASN  `json:"b"`
		Present bool     `json:"present"`
		IXPs    []string `json:"ixps"`
	}{epoch, key.A, key.B, present, ixps})
}

func oracleIXP(t *testing.T, epoch uint64, r *core.Result, name string) string {
	x := r.PerIXP[name]
	covered := []bgp.ASN{}
	for m := range x.Filters {
		covered = append(covered, m)
	}
	sort.Slice(covered, func(i, j int) bool { return covered[i] < covered[j] })
	links := []oracleLink{}
	for _, k := range oracleSortedKeys(x.Links) {
		links = append(links, oracleLink{k.A, k.B, []string{name}})
	}
	return oracleJSON(t, struct {
		Epoch   uint64       `json:"epoch"`
		Name    string       `json:"name"`
		Members int          `json:"members"`
		Covered []bgp.ASN    `json:"covered"`
		Passive int          `json:"passive"`
		Active  int          `json:"active"`
		Links   []oracleLink `json:"links"`
	}{epoch, name, len(x.Members), covered, x.PassiveCount(), x.ActiveCount(), links})
}

func oracleIXPList(t *testing.T, epoch uint64, r *core.Result) string {
	type row struct {
		Name    string `json:"name"`
		Members int    `json:"members"`
		Covered int    `json:"covered"`
		Passive int    `json:"passive"`
		Active  int    `json:"active"`
		Links   int    `json:"links"`
	}
	rows := []row{}
	for name, x := range r.PerIXP {
		rows = append(rows, row{name, len(x.Members), len(x.Filters), x.PassiveCount(), x.ActiveCount(), len(x.Links)})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].Name < rows[j].Name })
	return oracleJSON(t, struct {
		Epoch uint64 `json:"epoch"`
		IXPs  []row  `json:"ixps"`
	}{epoch, rows})
}

// hostileName is an IXP name exercising every class of JSON string
// escape encoding/json applies: quote, backslash, HTML-sensitive
// characters, a control byte, multi-byte UTF-8 and U+2028.
const hostileName = "R&D \"east\" <IX>\\\tü\u2028"

// churnedWindows replays a hand-built schedule — announcements, an
// in-window flap, a filter edit, an RS leave and rejoin, a full
// withdrawal, then idle windows — through the incremental windowed
// miner and hands every materialized window to fn.
func churnedWindows(t *testing.T, fn func(*core.PassiveWindow)) {
	t.Helper()
	sites := []core.WebsiteData{
		{Name: "DE-CIX", Scheme: ixp.StandardScheme(6695), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{100, 200, 300, 8359}},
		{Name: hostileName, Scheme: ixp.StandardScheme(8631), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{100, 200, 300, 400, 500}},
		{Name: "ECIX", Scheme: ixp.PrivateRangeScheme(9033), PublishesMemberList: true,
			PublishedRSMembers: []bgp.ASN{600, 700}},
	}
	dict, err := core.BuildDictionary(sites, nil)
	if err != nil {
		t.Fatal(err)
	}
	comms := func(s string) bgp.Communities {
		cs, err := bgp.ParseCommunities(s)
		if err != nil {
			t.Fatal(err)
		}
		return cs
	}
	upd := func(ts time.Time, path []bgp.ASN, cs bgp.Communities, nlri, withdrawn []bgp.Prefix) *mrt.BGP4MPMessage {
		u := &bgp.Update{Withdrawn: withdrawn, NLRI: nlri}
		if len(nlri) > 0 {
			u.Attrs = &bgp.PathAttrs{Origin: bgp.OriginIGP, ASPath: bgp.NewASPath(path...), Communities: cs}
		}
		return &mrt.BGP4MPMessage{Timestamp: ts, PeerASN: 100, Message: u, AS4: true}
	}
	pfx := func(i int) []bgp.Prefix { return []bgp.Prefix{bgp.MustPrefix(fmt.Sprintf("10.%d.0.0/24", i))} }

	t0 := time.Date(2013, 5, 1, 2, 0, 0, 0, time.UTC)
	w := 10 * time.Minute
	all, excl300, msk := comms("6695:6695"), comms("6695:6695 0:300"), comms("8631:8631")
	updates := []*mrt.BGP4MPMessage{
		// Base: setters 200 and 300 at both IXPs (200-300 is a multi-IXP
		// link), 400 only at the hostile-named one.
		upd(t0.Add(-7*time.Minute), []bgp.ASN{100, 300}, msk, pfx(7), nil),
		upd(t0.Add(-6*time.Minute), []bgp.ASN{100, 8359}, all, pfx(0), nil),
		upd(t0.Add(-5*time.Minute), []bgp.ASN{100, 200}, all, pfx(1), nil),
		upd(t0.Add(-4*time.Minute), []bgp.ASN{100, 300}, all, pfx(2), nil),
		upd(t0.Add(-3*time.Minute), []bgp.ASN{100, 500}, msk, pfx(3), nil),
		upd(t0.Add(-2*time.Minute), []bgp.ASN{100, 200}, msk, pfx(4), nil),
		upd(t0.Add(-time.Minute), []bgp.ASN{100, 400}, msk, pfx(5), nil),
		// Window 0: a flap that must be invisible at close.
		upd(t0.Add(time.Minute), nil, nil, nil, pfx(1)),
		upd(t0.Add(2*time.Minute), []bgp.ASN{100, 200}, all, pfx(1), nil),
		// Window 1: filter edit — 200 stops exporting to 300.
		upd(t0.Add(w+time.Minute), []bgp.ASN{100, 200}, excl300, pfx(1), nil),
		// Window 2: RS leave — 300 re-announces without communities.
		upd(t0.Add(2*w+time.Minute), []bgp.ASN{100, 300}, nil, pfx(2), nil),
		// Window 3: 300 rejoins, 200's edit reverts, a second 500 route appears.
		upd(t0.Add(3*w+time.Minute), []bgp.ASN{100, 300}, all, pfx(2), nil),
		upd(t0.Add(3*w+2*time.Minute), []bgp.ASN{100, 200}, all, pfx(1), nil),
		upd(t0.Add(3*w+3*time.Minute), []bgp.ASN{100, 500}, msk, pfx(6), nil),
		// Window 4: 400 withdraws everything.
		upd(t0.Add(4*w+time.Minute), nil, nil, nil, pfx(5)),
		// Windows 5-7: idle.
	}
	_, err = core.RunPassiveWindows(nil, updates, dict, core.WindowOptions{
		Start: t0, Window: w, Count: 8,
		Stream: func(pw *core.PassiveWindow) {
			pw.Materialize()
			fn(pw)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestIndexedBodiesMatchScanOracle is the index's property test: at
// every epoch of a churned replay, every body the gateway serves off
// the link index — /v1/as for every AS, /v1/ixp for every IXP, the
// mesh, the IXP list and link lookups — equals the full-scan +
// encoding/json oracle byte for byte, as does the exported Render* of
// the same query. The epochs form one chain: from the second on, each
// snapshot's index and encoded link array are patched out of the
// previous epoch's (core.Result.BuildIndex), so every body — and the
// fingerprint in the ETag — is also held against the same query on a
// detached copy of the Result, which nothing but a from-scratch index
// build has ever touched. One of the IXP names needs every kind of
// JSON escape.
func TestIndexedBodiesMatchScanOracle(t *testing.T) {
	asns := []bgp.ASN{100, 200, 300, 400, 500, 600, 700, 8359, 1, 4200000000}
	g := New(Config{})
	h := g.Handler()
	var epoch uint64
	var prev *core.Result
	var fps []uint64
	var multi []int
	shared := 0
	churnedWindows(t, func(pw *core.PassiveWindow) {
		epoch++
		res := pw.Result
		if res == prev {
			shared++
		}
		prev = res
		fps = append(fps, res.Fingerprint())
		multi = append(multi, res.MultiIXPLinks())
		snap := NewSnapshot(epoch, "test-world", pw, time.Date(2026, 8, 8, 12, 0, int(epoch), 0, time.UTC))
		g.publish(snap)

		// fresh is the same mesh outside the chain: its fingerprint comes
		// from the unindexed hash walk, its renders from an index built
		// from scratch.
		fresh := &core.Result{PerIXP: res.PerIXP, Links: maps.Clone(res.Links)}
		if fp := fresh.Fingerprint(); fp != snap.Fingerprint {
			t.Fatalf("epoch %d: chained fingerprint %016x, detached rebuild %016x", epoch, snap.Fingerprint, fp)
		}

		check := func(path, want string, direct ...[]byte) {
			t.Helper()
			rr := get(t, h, path, nil)
			if rr.Code != http.StatusOK {
				t.Fatalf("epoch %d: GET %s = %d", epoch, path, rr.Code)
			}
			if got := rr.Body.String(); got != want {
				t.Errorf("epoch %d: %s differs from the scan oracle:\n http:   %s\n oracle: %s", epoch, path, got, want)
			}
			for i, d := range direct {
				if string(d) != want {
					t.Errorf("epoch %d: direct render %d of %s (0 chained, 1 detached) differs from the scan oracle:\n direct: %s\n oracle: %s", epoch, i, path, d, want)
				}
			}
			if cl := rr.Header().Get("Content-Length"); cl != fmt.Sprint(len(want)) {
				t.Errorf("epoch %d: %s Content-Length %s, body %d", epoch, path, cl, len(want))
			}
		}
		check("/v1/mesh", oracleMesh(t, epoch, res), RenderMesh(epoch, res.Fingerprint(), res), RenderMesh(epoch, snap.Fingerprint, fresh))
		check("/v1/ixps", oracleIXPList(t, epoch, res), RenderIXPList(epoch, res), RenderIXPList(epoch, fresh))
		for _, asn := range asns {
			check(fmt.Sprintf("/v1/as/%d", uint32(asn)), oracleAS(t, epoch, res, asn), RenderAS(epoch, res, asn), RenderAS(epoch, fresh, asn))
		}
		for name := range res.PerIXP {
			direct, ok := RenderIXP(epoch, res, name)
			detached, ok2 := RenderIXP(epoch, fresh, name)
			if !ok || !ok2 {
				t.Fatalf("epoch %d: RenderIXP(%q) not ok", epoch, name)
			}
			check("/v1/ixp/"+url.PathEscape(name), oracleIXP(t, epoch, res, name), direct, detached)
		}
		for _, pair := range [][2]bgp.ASN{{100, 200}, {300, 200}, {100, 400}, {600, 700}, {1, 2}} {
			check(fmt.Sprintf("/v1/link?b=%d&a=%d", uint32(pair[1]), uint32(pair[0])),
				oracleLinkLookup(t, epoch, res, pair[0], pair[1]), RenderLink(epoch, res, pair[0], pair[1]))
		}
	})
	if epoch != 8 {
		t.Fatalf("replayed %d windows, want 8", epoch)
	}
	// The schedule must move the mesh in each of the first five windows
	// (the flap aside), through multi-IXP attribution too, and the idle
	// tail must publish shared Results.
	for k := 1; k <= 4; k++ {
		if fps[k] == fps[k-1] {
			t.Fatalf("schedule too weak: window %d left the mesh unchanged (fingerprints %x)", k, fps)
		}
	}
	if multi[0] == 0 || multi[1] >= multi[0] {
		t.Fatalf("schedule too weak: multi-IXP links per window %v", multi)
	}
	if shared < 3 {
		t.Fatalf("%d windows shared their Result with the previous one, want the 3 idle ones", shared)
	}
}

// TestRenderUnindexedResult pins that the exported renders need no
// prior NewSnapshot: on a Result fresh from InferLinks they produce the
// oracle's bytes (building the index on the way).
func TestRenderUnindexedResult(t *testing.T) {
	_, res := testResult(t)
	if got, want := string(RenderAS(3, res, 64500)), oracleAS(t, 3, res, 64500); got != want {
		t.Errorf("RenderAS on an unindexed result:\n got:  %s\n want: %s", got, want)
	}
	_, res = testResult(t)
	if got, want := string(RenderMesh(3, res.Fingerprint(), res)), oracleMesh(t, 3, res); got != want {
		t.Errorf("RenderMesh on an unindexed result:\n got:  %s\n want: %s", got, want)
	}
	_, res = testResult(t)
	if got, ok := RenderIXP(3, res, "AMS-IX"); !ok || string(got) != oracleIXP(t, 3, res, "AMS-IX") {
		t.Errorf("RenderIXP on an unindexed result: ok=%v\n got:  %s\n want: %s", ok, got, oracleIXP(t, 3, res, "AMS-IX"))
	}
}

// TestConditionalBeforeRender pins the order of the read path: what
// the snapshot cannot answer is a 4xx even with a matching validator,
// and a matching validator is a bodiless 304 on every data endpoint.
func TestConditionalBeforeRender(t *testing.T) {
	_, res := testResult(t)
	g := testGateway(t, res)
	h := g.Handler()
	match := map[string]string{"If-None-Match": g.Current().ETag}
	for _, path := range []string{"/v1/epoch", "/v1/stats", "/v1/mesh", "/v1/ixps", "/v1/ixp/DE-CIX", "/v1/link?a=64500&b=64501", "/v1/as/64500"} {
		rr := get(t, h, path, match)
		if rr.Code != http.StatusNotModified || rr.Body.Len() != 0 {
			t.Errorf("%s with a matching validator = %d with %d body bytes, want a bodiless 304", path, rr.Code, rr.Body.Len())
		}
	}
	for path, want := range map[string]int{
		"/v1/ixp/NO-SUCH":        http.StatusNotFound,
		"/v1/as/banana":          http.StatusBadRequest,
		"/v1/link?a=1":           http.StatusBadRequest,
		"/v1/link?a=1&b=":        http.StatusBadRequest,
		"/v1/link?a=1&b=-2":      http.StatusBadRequest,
		"/v1/link?a=1&b=2x":      http.StatusBadRequest,
		"/v1/link?a=1&b=%32":     http.StatusBadRequest,
		"/v1/link?a=4294967296":  http.StatusBadRequest,
		"/v1/link?a=1&b=2&b=x":   http.StatusOK,
		"/v1/link?x=9&&a=1&b=2&": http.StatusOK,
		"/v1/nope":               http.StatusNotFound,
	} {
		hdr := match
		if want == http.StatusOK {
			hdr = nil
		}
		if rr := get(t, h, path, hdr); rr.Code != want {
			t.Errorf("%s = %d, want %d", path, rr.Code, want)
		}
	}
}
