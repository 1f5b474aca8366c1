package peeringdb

import (
	"bytes"
	"reflect"
	"slices"
	"testing"
)

// A registry file is bytes from outside: ReadFrom returns an error or
// loads records, and never panics. What it loads must survive the
// registry's own writer: WriteTo and a reload give the same records.
// The seed corpora under testdata/fuzz hold the edge cases, among them
// a null record.

func FuzzRegistryReadFrom(f *testing.F) {
	f.Add([]byte(`{"records":[{"asn":100,"name":"A","policy":1,"scope":3,"ixps":["DE-CIX"],"lg_urls":null}]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRegistry()
		if _, err := r.ReadFrom(bytes.NewReader(data)); err != nil {
			if r.Len() != 0 {
				t.Fatalf("a rejected load merged %d records: %v", r.Len(), err)
			}
			return
		}
		var buf bytes.Buffer
		if _, err := r.WriteTo(&buf); err != nil {
			t.Fatal(err)
		}
		again := NewRegistry()
		if _, err := again.ReadFrom(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("written registry does not load: %v\n%s", err, buf.Bytes())
		}
		asns := r.ASNs()
		if !slices.Equal(asns, again.ASNs()) {
			t.Fatalf("reload holds ASNs %v, want %v", again.ASNs(), asns)
		}
		for _, asn := range asns {
			if got, want := again.Get(asn), r.Get(asn); !reflect.DeepEqual(got, want) {
				t.Fatalf("AS%d reloads as %+v, want %+v", asn, got, want)
			}
		}
	})
}

func FuzzParsePolicyScope(f *testing.F) {
	for _, s := range []string{"open", "selective", "restrictive", "unknown", "", "global", "europe", "regional", "n/a"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		if p, err := ParsePolicy(s); err == nil {
			if again, err := ParsePolicy(p.String()); err != nil || again != p {
				t.Fatalf("ParsePolicy(%q) = %v, whose String %q parses to %v, %v", s, p, p.String(), again, err)
			}
		}
		if sc, err := ParseScope(s); err == nil {
			if again, err := ParseScope(sc.String()); err != nil || again != sc {
				t.Fatalf("ParseScope(%q) = %v, whose String %q parses to %v, %v", s, sc, sc.String(), again, err)
			}
		}
	})
}
