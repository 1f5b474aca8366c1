package bgp

import (
	"slices"
	"testing"
)

// FuzzDecode: whatever bytes arrive, Decode and DecodeAttrs return a
// value or an error, in both AS-number widths — they never panic.
// testdata/fuzz/FuzzDecode holds a valid UPDATE message and a valid
// attribute section to mutate from.
func FuzzDecode(f *testing.F) {
	u := &Update{NLRI: []Prefix{MustPrefix("203.0.113.0/24")}, Withdrawn: []Prefix{MustPrefix("198.51.100.0/24")}, Attrs: testAttrs()}
	msg, err := Encode(u)
	if err != nil {
		f.Fatal(err)
	}
	attrs, err := testAttrs().AppendWire(nil, true)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(msg)
	f.Add(attrs)
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, as4 := range []bool{true, false} {
			if m, err := Decode(data, as4); err == nil && m == nil {
				t.Fatal("nil message without an error")
			}
			if a, err := DecodeAttrs(data, as4); err == nil && a == nil {
				t.Fatal("nil attributes without an error")
			}
		}
	})
}

// FuzzASPathWire: a path parsed from looking-glass text either fails to
// encode or decodes back to the same hops, in both AS-number widths
// (the 2-octet form carries AS_TRANS for every 32-bit ASN). The seed
// corpus in testdata/fuzz/FuzzASPathWire includes a 300-hop sequence,
// one segment's worth and more.
func FuzzASPathWire(f *testing.F) {
	f.Add("3356 6695 8359")
	f.Add("3356 {64512,70000} 196615")
	f.Fuzz(func(t *testing.T, text string) {
		p, err := ParseASPath(text)
		if err != nil {
			return
		}
		for _, as4 := range []bool{true, false} {
			wire, err := (&PathAttrs{ASPath: p}).AppendWire(nil, as4)
			if err != nil {
				continue
			}
			out, err := DecodeAttrs(wire, as4)
			if err != nil {
				t.Fatalf("as4=%v: a %d-hop path encoded but does not decode: %v", as4, len(p.Flatten()), err)
			}
			want := p.Flatten()
			if !as4 {
				for i, a := range want {
					if a.Is32Bit() {
						want[i] = ASTrans
					}
				}
			}
			if got := out.ASPath.Flatten(); !slices.Equal(got, want) {
				t.Fatalf("as4=%v: %d hops decoded, want %d", as4, len(got), len(want))
			}
		}
	})
}
