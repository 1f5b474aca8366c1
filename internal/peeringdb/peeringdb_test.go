package peeringdb

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Put(&Record{ASN: 15169, Name: "BigContent", Policy: PolicyOpen, Scope: ScopeGlobal})
	r.Put(&Record{ASN: 9002, Name: "EastISP", Policy: PolicySelective, Scope: ScopeEurope, LGURLs: []string{"http://lg.example/"}})

	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if r.Policy(15169) != PolicyOpen || r.Scope(9002) != ScopeEurope {
		t.Fatal("lookups")
	}
	if r.Policy(1) != PolicyUnknown || r.Scope(1) != ScopeUnknown {
		t.Fatal("absent AS must report unknown")
	}

	// Get returns a copy; mutations must not leak back.
	rec := r.Get(15169)
	rec.Policy = PolicyRestrictive
	if r.Policy(15169) != PolicyOpen {
		t.Fatal("Get leaked internal state")
	}
}

func TestRegistryJSONRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Put(&Record{ASN: 100, Name: "A", Policy: PolicyOpen, Scope: ScopeRegional, IXPs: []string{"DE-CIX"}})
	r.Put(&Record{ASN: 200, Name: "B", Policy: PolicyRestrictive})

	var buf bytes.Buffer
	if _, err := r.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	r2 := NewRegistry()
	if _, err := r2.ReadFrom(&buf); err != nil {
		t.Fatal(err)
	}
	if r2.Len() != 2 || r2.Policy(100) != PolicyOpen || len(r2.Get(100).IXPs) != 1 {
		t.Fatalf("round trip: %+v", r2.Get(100))
	}

	if _, err := NewRegistry().ReadFrom(bytes.NewBufferString("{bad")); err == nil {
		t.Fatal("bad JSON must error")
	}
	r3 := NewRegistry()
	if _, err := r3.ReadFrom(bytes.NewBufferString(`{"records":[{"asn":1},null]}`)); err == nil || !strings.Contains(err.Error(), "record 1 ") {
		t.Fatalf("a null record must error naming it, got %v", err)
	}
	if r3.Len() != 0 {
		t.Fatalf("a rejected load merged %d records", r3.Len())
	}
}

func TestRegistryFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pdb.json")
	r := NewRegistry()
	r.Put(&Record{ASN: 42, Name: "X", Policy: PolicySelective})
	if err := r.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	back := NewRegistry()
	if _, err := back.ReadFrom(f); err != nil {
		t.Fatal(err)
	}
	if back.Policy(42) != PolicySelective {
		t.Fatal("file round trip")
	}
}
