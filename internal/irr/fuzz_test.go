package irr

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// RPSL text is bytes from outside: whatever a registry dump holds,
// Parse and parsePolicyLine return a result or an error and never
// panic. What they accept must also survive this package's own
// writers: writing the parsed objects (or filter) back out and parsing
// again gives the same result. The seed corpora under testdata/fuzz
// hold the edge cases, among them a continuation onto an empty value.

const seedRPSL = `aut-num:        AS8359
as-name:        MTS
import:         from AS6695 accept ANY
export:         to AS6695 announce ANY EXCEPT {AS5410, AS8732}
+               # a continuation
remarks:        first line
                second line

% a comment
as-set:         AS-MTS
members:        AS8359, AS-MTS-CUSTOMERS
`

func FuzzParse(f *testing.F) {
	f.Add(seedRPSL)
	f.Fuzz(func(t *testing.T, text string) {
		objs, err := Parse(strings.NewReader(text))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := WriteObjects(&buf, objs); err != nil {
			t.Fatal(err)
		}
		again, err := Parse(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("written objects do not parse: %v\n%s", err, buf.Bytes())
		}
		if !reflect.DeepEqual(objs, again) {
			t.Fatalf("round trip changed the objects:\n parsed:  %q\n again:   %q\n written: %q", attrsOf(objs), attrsOf(again), buf.Bytes())
		}
	})
}

func attrsOf(objs []*Object) [][]Attr {
	out := make([][]Attr, len(objs))
	for i, o := range objs {
		out[i] = o.Attrs
	}
	return out
}

func FuzzParsePolicyLine(f *testing.F) {
	f.Add("to AS6777 announce ANY")
	f.Add("from AS6777 accept ANY EXCEPT {AS5410, AS8732}")
	f.Add("to AS6777 announce ONLY {AS8359,AS8447}")
	f.Fuzz(func(t *testing.T, line string) {
		pf, err := parsePolicyLine(line)
		if err != nil {
			return
		}
		for _, format := range []func(bgp.ASN, ixp.ExportFilter) string{FormatExportLine, FormatImportLine} {
			out := format(pf.Peer, pf.Filter)
			again, err := parsePolicyLine(out)
			if err != nil {
				t.Fatalf("%q -> %q does not parse: %v", line, out, err)
			}
			if again.Peer != pf.Peer || !again.Filter.Equal(pf.Filter) {
				t.Fatalf("%q -> %q parses to %+v, want %+v", line, out, again, pf)
			}
		}
	})
}
