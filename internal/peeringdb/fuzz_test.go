package peeringdb

import (
	"bytes"
	"testing"
)

// A registry file is bytes from outside: ReadFrom returns an error or
// loads records, and never panics. What it loads must survive the
// registry's own writer: a reload of WriteTo's output writes the same
// bytes. WriteTo sorts by ASN, so equal bytes mean every field of every
// record came back.
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
		var rewritten bytes.Buffer
		if _, err := again.WriteTo(&rewritten); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(rewritten.Bytes(), buf.Bytes()) {
			t.Fatalf("reload writes\n%s\nwant\n%s", rewritten.Bytes(), buf.Bytes())
		}
	})
}
