package bgp

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Community is a standard 32-bit BGP community (RFC 1997), conventionally
// written high:low where each half is a 16-bit decimal.
type Community uint32

// Well-known communities (RFC 1997 / RFC 3765).
const (
	CommunityNoExport          Community = 0xFFFFFF01
	CommunityNoAdvertise       Community = 0xFFFFFF02
	CommunityNoExportSubconfed Community = 0xFFFFFF03
)

// MakeCommunity composes a community from its 16-bit halves. Values
// above 16 bits are truncated, mirroring what happens on routers when an
// operator tries to encode a 32-bit ASN directly.
func MakeCommunity(high, low ASN) Community {
	return Community(uint32(high&0xFFFF)<<16 | uint32(low&0xFFFF))
}

// High returns the upper 16 bits as an ASN.
func (c Community) High() ASN { return ASN(c >> 16) }

// Low returns the lower 16 bits as an ASN.
func (c Community) Low() ASN { return ASN(c & 0xFFFF) }

// String renders the community in canonical high:low form.
func (c Community) String() string {
	switch c {
	case CommunityNoExport:
		return "no-export"
	case CommunityNoAdvertise:
		return "no-advertise"
	case CommunityNoExportSubconfed:
		return "no-export-subconfed"
	}
	return strconv.FormatUint(uint64(c>>16), 10) + ":" + strconv.FormatUint(uint64(c&0xFFFF), 10)
}

// ParseCommunity parses "high:low" decimal notation, as well as the
// well-known names used by router CLIs.
func ParseCommunity(s string) (Community, error) {
	switch strings.ToLower(s) {
	case "no-export":
		return CommunityNoExport, nil
	case "no-advertise":
		return CommunityNoAdvertise, nil
	case "no-export-subconfed", "local-as":
		return CommunityNoExportSubconfed, nil
	}
	i := strings.IndexByte(s, ':')
	if i < 0 {
		return 0, fmt.Errorf("bgp: community %q: missing ':'", s)
	}
	hi, err := strconv.ParseUint(s[:i], 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: community %q: bad high half: %w", s, err)
	}
	lo, err := strconv.ParseUint(s[i+1:], 10, 16)
	if err != nil {
		return 0, fmt.Errorf("bgp: community %q: bad low half: %w", s, err)
	}
	return Community(uint32(hi)<<16 | uint32(lo)), nil
}

// Communities is an ordered set of community values as carried in the
// COMMUNITIES path attribute.
type Communities []Community

// ParseCommunities parses a whitespace-separated list, the format in
// which looking glasses print the attribute.
func ParseCommunities(s string) (Communities, error) {
	fields := strings.Fields(s)
	if len(fields) == 0 {
		return nil, nil
	}
	cs := make(Communities, 0, len(fields))
	for _, f := range fields {
		c, err := ParseCommunity(f)
		if err != nil {
			return nil, err
		}
		cs = append(cs, c)
	}
	return cs, nil
}

// String renders the set space-separated in canonical order of appearance.
func (cs Communities) String() string {
	var b strings.Builder
	for i, c := range cs {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(c.String())
	}
	return b.String()
}

// Clone returns an independent copy.
func (cs Communities) Clone() Communities {
	if cs == nil {
		return nil
	}
	out := make(Communities, len(cs))
	copy(out, cs)
	return out
}

// Sorted returns a sorted copy; used to canonicalize sets for comparison.
func (cs Communities) Sorted() Communities {
	out := cs.Clone()
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Dedup returns a sorted copy with duplicates removed.
func (cs Communities) Dedup() Communities {
	if len(cs) == 0 {
		return nil
	}
	out := cs.Sorted()
	w := 1
	for i := 1; i < len(out); i++ {
		if out[i] != out[w-1] {
			out[w] = out[i]
			w++
		}
	}
	return out[:w]
}

// Equal reports whether two sets carry the same values irrespective of
// order and multiplicity. The paper's consistency analysis (§4.3)
// compares community sets across prefix announcements this way.
func (cs Communities) Equal(other Communities) bool {
	a, b := cs.Dedup(), other.Dedup()
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
