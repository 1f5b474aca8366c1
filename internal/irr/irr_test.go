package irr

import (
	"bytes"
	"strings"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

const sampleRPSL = `% RIPE-style comment
aut-num:        AS8359
as-name:        EXAMPLE-NET
import:         from AS6777 accept ANY
export:         to AS6777 announce ANY EXCEPT {AS5410, AS8732}
source:         SYNTH

as-set:         AS-TIX-RSMEMBERS
members:        AS8359, AS5410,
+               AS8732
members:        AS-NESTED
source:         SYNTH

as-set:         AS-NESTED
members:        AS196615
source:         SYNTH
`

func TestParseObjects(t *testing.T) {
	objs, err := Parse(strings.NewReader(sampleRPSL))
	if err != nil {
		t.Fatal(err)
	}
	if len(objs) != 3 {
		t.Fatalf("objects = %d", len(objs))
	}
	an := objs[0]
	if an.Class() != "aut-num" || an.Key() != "AS8359" {
		t.Fatalf("object 0: %s %s", an.Class(), an.Key())
	}
	if v := an.All("as-name"); len(v) != 1 || v[0] != "EXAMPLE-NET" {
		t.Fatalf("as-name = %q", v)
	}
	// Continuation lines are folded.
	set := objs[1]
	ms := set.All("members")
	if len(ms) != 2 || !strings.Contains(ms[0], "AS8732") {
		t.Fatalf("members = %v", ms)
	}
}

func TestParseErrors(t *testing.T) {
	if _, err := Parse(strings.NewReader("   leading continuation\n")); err == nil {
		t.Fatal("orphan continuation must error")
	}
	if _, err := Parse(strings.NewReader("no colon here\n")); err == nil {
		t.Fatal("missing colon must error")
	}
}

func TestWriteParseRoundTrip(t *testing.T) {
	objs, err := Parse(strings.NewReader(sampleRPSL))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteObjects(&buf, objs); err != nil {
		t.Fatal(err)
	}
	back, err := Parse(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(objs) {
		t.Fatalf("round trip: %d vs %d", len(back), len(objs))
	}
	for i := range objs {
		if back[i].Class() != objs[i].Class() || back[i].Key() != objs[i].Key() {
			t.Fatalf("object %d differs", i)
		}
	}
}

func TestRegistryLookupAndExpand(t *testing.T) {
	objs, _ := Parse(strings.NewReader(sampleRPSL))
	reg := NewRegistry()
	for _, o := range objs {
		reg.Add(o)
	}
	if _, ok := reg.AutNum(8359); !ok {
		t.Fatal("aut-num lookup failed")
	}
	if _, ok := reg.Lookup("as-set", "as-tix-rsmembers"); !ok {
		t.Fatal("case-insensitive lookup failed")
	}
	asns, err := reg.ExpandASSet("AS-TIX-RSMEMBERS")
	if err != nil {
		t.Fatal(err)
	}
	want := []bgp.ASN{5410, 8359, 8732, 196615}
	if len(asns) != len(want) {
		t.Fatalf("expand = %v", asns)
	}
	for i := range want {
		if asns[i] != want[i] {
			t.Fatalf("expand = %v, want %v", asns, want)
		}
	}
	// Unknown set expands empty, not error.
	if got, err := reg.ExpandASSet("AS-MISSING"); err != nil || len(got) != 0 {
		t.Fatalf("unknown set: %v, %v", got, err)
	}
}

func TestExpandASSetCycle(t *testing.T) {
	text := `as-set: AS-A
members: AS-B, AS1

as-set: AS-B
members: AS-A, AS2
`
	objs, _ := Parse(strings.NewReader(text))
	reg := NewRegistry()
	for _, o := range objs {
		reg.Add(o)
	}
	asns, err := reg.ExpandASSet("AS-A")
	if err != nil {
		t.Fatal(err)
	}
	if len(asns) != 2 {
		t.Fatalf("cycle expand = %v", asns)
	}
}

func TestSearchAutNumsMentioning(t *testing.T) {
	objs, _ := Parse(strings.NewReader(sampleRPSL))
	reg := NewRegistry()
	for _, o := range objs {
		reg.Add(o)
	}
	got := reg.SearchAutNumsMentioning(6777)
	if len(got) != 1 || got[0] != 8359 {
		t.Fatalf("search = %v", got)
	}
	if len(reg.SearchAutNumsMentioning(9999)) != 0 {
		t.Fatal("false positive")
	}
}

func TestPolicyLineRoundTrip(t *testing.T) {
	cases := []ixp.ExportFilter{
		ixp.OpenFilter(),
		ixp.NewExportFilter(ixp.ModeAllExcept, 5410, 8732),
		ixp.NewExportFilter(ixp.ModeNoneExcept, 8359),
		ixp.NewExportFilter(ixp.ModeNoneExcept),
	}
	for i, f := range cases {
		line := FormatExportLine(6777, f)
		pf, err := parsePolicyLine(line)
		if err != nil {
			t.Fatalf("case %d (%q): %v", i, line, err)
		}
		if pf.Peer != 6777 || !pf.Filter.Equal(f) {
			t.Fatalf("case %d: %q -> %+v", i, line, pf)
		}
		iline := FormatImportLine(6777, f)
		pf2, err := parsePolicyLine(iline)
		if err != nil || !pf2.Filter.Equal(f) {
			t.Fatalf("import case %d: %v", i, err)
		}
	}
	for _, bad := range []string{"", "to AS1", "to X announce ANY", "to AS1 frobnicate ANY", "to AS1 announce SOMETIMES"} {
		if _, err := parsePolicyLine(bad); err == nil {
			t.Errorf("parsePolicyLine(%q): expected error", bad)
		}
	}
}
