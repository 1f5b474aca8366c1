package serve

import (
	"net/http"
	"net/http/httptest"
	"net/url"
	"strconv"
	"strings"
	"testing"
)

// The gateway's query parsers read text straight off the request line,
// so they are fuzzed as a text boundary: nothing may panic, each must
// agree with a plain standard-library reference on the inputs the
// reference reads the same way, and the handler must answer 400 exactly
// when the parser refuses. Seeds live under testdata/fuzz.

// fuzzHandler serves the small test mesh, for the handler-level checks.
func fuzzHandler(f *testing.F) http.Handler {
	_, res := testResult(f)
	return testGateway(f, res).Handler()
}

// serveRaw sends a GET with the given path and raw query through h,
// bypassing URL parsing so any bytes reach the router.
func serveRaw(h http.Handler, path, rawQuery string) int {
	req := httptest.NewRequest(http.MethodGet, "/", nil)
	req.URL = &url.URL{Path: path, RawQuery: rawQuery}
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	return rr.Code
}

func FuzzParseASN(f *testing.F) {
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, s string) {
		asn, err := parseASN(s)
		n, refErr := strconv.ParseUint(s, 10, 32)
		if (err == nil) != (refErr == nil) || err == nil && uint64(asn) != n {
			t.Fatalf("parseASN(%q) = %d, %v; strconv.ParseUint = %d, %v", s, asn, err, n, refErr)
		}
		want := http.StatusOK
		if err != nil {
			want = http.StatusBadRequest
		}
		if code := serveRaw(h, "/v1/as/"+s, ""); code != want {
			t.Fatalf("/v1/as/%q = %d, want %d", s, code, want)
		}
	})
}

// refLinkQuery reads a= and b= the way a url.Values-based handler
// would.
func refLinkQuery(raw string) (a, b uint64, ok bool) {
	vals, err := url.ParseQuery(raw)
	if err != nil {
		return 0, 0, false
	}
	a, errA := strconv.ParseUint(vals.Get("a"), 10, 32)
	b, errB := strconv.ParseUint(vals.Get("b"), 10, 32)
	return a, b, errA == nil && errB == nil
}

func FuzzParseLinkQuery(f *testing.F) {
	h := fuzzHandler(f)
	f.Fuzz(func(t *testing.T, raw string) {
		a, b, ok := parseLinkQuery(raw)
		// Percent-escapes and '+' decode under url.ParseQuery, and ';' is
		// an error there: ASNs never need them, so parseLinkQuery reads
		// them as literal bytes and the reference is not the same query.
		if !strings.ContainsAny(raw, "%+;") {
			ra, rb, rok := refLinkQuery(raw)
			if ok != rok || ok && (uint64(a) != ra || uint64(b) != rb) {
				t.Fatalf("parseLinkQuery(%q) = %d, %d, %v; url.ParseQuery reference = %d, %d, %v", raw, a, b, ok, ra, rb, rok)
			}
		}
		want := http.StatusOK
		if !ok {
			want = http.StatusBadRequest
		}
		if code := serveRaw(h, "/v1/link", raw); code != want {
			t.Fatalf("/v1/link?%s = %d, want %d", raw, code, want)
		}
	})
}

// refETagMatch is etagMatch spelled with strings.Split.
func refETagMatch(inm, etag string) bool {
	if strings.TrimSpace(inm) == "*" {
		return true
	}
	if inm == "" {
		return false
	}
	for _, cand := range strings.Split(inm, ",") {
		if strings.TrimPrefix(strings.TrimSpace(cand), "W/") == etag {
			return true
		}
	}
	return false
}

// gatewayShapedTag reports whether etag is a strong entity tag with no
// comma inside: the shape of every tag the gateway issues, and the
// tags an If-None-Match list can carry unambiguously.
func gatewayShapedTag(etag string) bool {
	if len(etag) < 2 || etag[0] != '"' || etag[len(etag)-1] != '"' {
		return false
	}
	for i := 1; i < len(etag)-1; i++ {
		if c := etag[i]; c <= ' ' || c == '"' || c == ',' || c == 0x7F {
			return false
		}
	}
	return true
}

func FuzzETagMatch(f *testing.F) {
	f.Fuzz(func(t *testing.T, inm, etag string) {
		// An entity tag is never empty (the gateway's are quoted), and only
		// an empty one tells the two apart: etagMatch stops at the last
		// comma, so it never compares an empty trailing element.
		if got, want := etagMatch(inm, etag), refETagMatch(inm, etag); etag != "" && got != want {
			t.Fatalf("etagMatch(%q, %q) = %v, split/trim reference %v", inm, etag, got, want)
		}
		if !gatewayShapedTag(etag) {
			return
		}
		for _, self := range []string{etag, "W/" + etag, "*", " * ", inm + "," + etag, etag + " , " + inm, inm + ", W/" + etag} {
			if !etagMatch(self, etag) {
				t.Fatalf("etagMatch(%q, %q) = false: a tag must match itself, its weak form and *", self, etag)
			}
		}
	})
}
