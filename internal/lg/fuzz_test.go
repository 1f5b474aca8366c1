package lg

import (
	"net/http/httptest"
	"reflect"
	"testing"

	"mlpeering/internal/bgp"
)

// Looking-glass text is bytes from outside: whatever a server prints,
// the three parsers return a result or an error and never panic. What
// they accept must also survive the server's own renderer: parsing the
// rendered answer gives the same result back. Beside the well-formed
// answers below, the seed corpora under testdata/fuzz hold each
// parser's edge cases: rows it must skip, fields it must reject, and
// forms it must accept (IPv6 zones, host bits, "AS"-prefixed ASNs).

const (
	seedSummary = `BGP router identifier 172.16.0.1, local AS number 6695

Neighbor                V         AS State/PfxRcd
172.16.1.3              4       8359          123
172.16.1.4              4     196615         Idle
172.16.1.5              4       5410            7
`
	seedRoutes = `BGP table version is 0, local router ID is 172.16.0.1
   Network              Next Hop
*> 30.1.0.0/16          0.0.0.0
*> 2001:db8::/32        0.0.0.0

Total number of prefixes 2
`
	seedPrefix = `BGP routing table entry for 30.1.0.0/16
Paths: (3 available, best #1)
  8359 1001
    172.16.1.3 from 172.16.1.3 (172.16.0.1)
      Origin IGP, localpref 100, valid, external, best
      Community: 6695:6695 0:5410
  200 64512 1001
    172.16.1.9 from 172.16.1.9 (172.16.0.1)
      Origin IGP, localpref 100, valid, external
  Local
    10.0.0.1 from 10.0.0.1 (10.0.0.1)
      Origin IGP, localpref 100, valid, external
`
)

func FuzzParseSummary(f *testing.F) {
	f.Add(seedSummary)
	f.Fuzz(func(t *testing.T, text string) {
		peers, err := parseSummary(text)
		if err != nil {
			return
		}
		rec := httptest.NewRecorder()
		renderSummary(rec, fakeBackend{asn: 6695, peers: peers})
		again, err := parseSummary(rec.Body.String())
		if err != nil || !reflect.DeepEqual(again, peers) {
			t.Fatalf("re-parse of rendered summary = %+v, %v; want %+v", again, err, peers)
		}
	})
}

func FuzzParseRoutes(f *testing.F) {
	f.Add(seedRoutes)
	f.Fuzz(func(t *testing.T, text string) {
		prefixes, err := parseRoutes(text)
		if err != nil {
			return
		}
		rec := httptest.NewRecorder()
		renderRoutes(rec, fakeBackend{}, prefixes)
		again, err := parseRoutes(rec.Body.String())
		if err != nil || !reflect.DeepEqual(again, prefixes) {
			t.Fatalf("re-parse of rendered routes = %v, %v; want %v", again, err, prefixes)
		}
	})
}

func FuzzParsePrefixResponse(f *testing.F) {
	f.Add(seedPrefix)
	f.Add("% Network not in table\n")
	f.Fuzz(func(t *testing.T, text string) {
		paths, err := parsePrefixResponse(text)
		if err != nil || len(paths) == 0 {
			return
		}
		rec := httptest.NewRecorder()
		renderPrefix(rec, fakeBackend{}, bgp.MustPrefix("30.1.0.0/16"), paths)
		again, err := parsePrefixResponse(rec.Body.String())
		if err != nil || !reflect.DeepEqual(again, paths) {
			t.Fatalf("re-parse of rendered paths = %+v, %v; want %+v", again, err, paths)
		}
	})
}
