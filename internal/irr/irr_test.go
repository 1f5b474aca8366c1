package irr

import (
	"bytes"
	"strings"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
	"mlpeering/internal/topology"
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
	if v, _ := an.Get("as-name"); v != "EXAMPLE-NET" {
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
		pf, err := ParsePolicyLine(line)
		if err != nil {
			t.Fatalf("case %d (%q): %v", i, line, err)
		}
		if pf.Peer != 6777 || !pf.Filter.Equal(f) {
			t.Fatalf("case %d: %q -> %+v", i, line, pf)
		}
		iline := FormatImportLine(6777, f)
		pf2, err := ParsePolicyLine(iline)
		if err != nil || !pf2.Filter.Equal(f) {
			t.Fatalf("import case %d: %v", i, err)
		}
	}
	for _, bad := range []string{"", "to AS1", "to X announce ANY", "to AS1 frobnicate ANY", "to AS1 announce SOMETIMES"} {
		if _, err := ParsePolicyLine(bad); err == nil {
			t.Errorf("ParsePolicyLine(%q): expected error", bad)
		}
	}
}

func TestBuildFromTopology(t *testing.T) {
	topo, err := topology.Generate(topology.TestConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg := Build(topo, 42)
	if reg.Len() == 0 {
		t.Fatal("empty registry")
	}

	// Publishing IXPs have expandable as-sets matching ground truth.
	for _, info := range topo.IXPs {
		if !info.PublishesMemberList {
			// LINX-style: no as-set...
			if _, ok := reg.Lookup("as-set", ASSetName(info.Name)); ok {
				t.Fatalf("%s published an as-set despite profile", info.Name)
			}
			// ...but members are discoverable via aut-num search.
			found := reg.SearchAutNumsMentioning(info.Scheme.RSASN)
			if len(found) == 0 {
				t.Fatalf("%s: no members discoverable via IRR search", info.Name)
			}
			for _, m := range found {
				if !info.IsRSMember(m) {
					t.Fatalf("%s: search found non-member %s", info.Name, m)
				}
			}
			continue
		}
		asns, err := reg.ExpandASSet(ASSetName(info.Name))
		if err != nil {
			t.Fatal(err)
		}
		if len(asns) != len(info.RSMembers) {
			t.Fatalf("%s: as-set %d members, truth %d", info.Name, len(asns), len(info.RSMembers))
		}
		for _, m := range asns {
			if !info.IsRSMember(m) {
				t.Fatalf("%s: as-set contains non-member %s", info.Name, m)
			}
		}
	}

	// §4.4 data: registered members expose filters that match ground
	// truth, with import never more restrictive than export.
	checked := 0
	for _, info := range topo.IXPs {
		for _, m := range info.SortedRSMembers() {
			imp, exp, err := reg.RSFilters(m, info.Scheme.RSASN)
			if err != nil {
				t.Fatal(err)
			}
			if imp == nil || exp == nil {
				continue // unregistered
			}
			checked++
			truthExp, _ := topo.ExportFilter(info.Name, m)
			truthImp, _ := topo.ImportFilter(info.Name, m)
			if !exp.Filter.Equal(truthExp) || !imp.Filter.Equal(truthImp) {
				t.Fatalf("%s member %s: IRR filters diverge from truth", info.Name, m)
			}
			for _, other := range info.RSMembers {
				if other == m {
					continue
				}
				if exp.Filter.Allows(other) && !imp.Filter.Allows(other) {
					t.Fatalf("%s member %s: IRR import more restrictive than export", info.Name, m)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no registered members with filters")
	}
}
