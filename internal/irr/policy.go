package irr

import (
	"fmt"
	"strings"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// PolicyFilter is a parsed import or export policy toward one peer AS
// (for this repository's purposes, toward a route server).
type PolicyFilter struct {
	// Peer is the AS the policy applies to (the "from"/"to" AS).
	Peer bgp.ASN
	// Filter is the reconstructed allow/deny set over RS members.
	Filter ixp.ExportFilter
}

// FormatExportLine renders a member's route-server export policy as an
// RPSL export attribute value. The grammar is a simplified RPSL policy
// expression:
//
//	to AS6777 announce ANY
//	to AS6777 announce ANY EXCEPT {AS5410, AS8732}
//	to AS6777 announce ONLY {AS8359, AS8447}
func FormatExportLine(rsASN bgp.ASN, f ixp.ExportFilter) string {
	return "to AS" + rsASN.String() + " announce " + formatFilterExpr(f)
}

// FormatImportLine renders the import direction:
//
//	from AS6777 accept ANY [EXCEPT {...}] / ONLY {...}
func FormatImportLine(rsASN bgp.ASN, f ixp.ExportFilter) string {
	return "from AS" + rsASN.String() + " accept " + formatFilterExpr(f)
}

func formatFilterExpr(f ixp.ExportFilter) string {
	list := func() string {
		var sb strings.Builder
		sb.WriteByte('{')
		for i, p := range f.PeerList() {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("AS" + p.String())
		}
		sb.WriteByte('}')
		return sb.String()
	}
	if f.Mode == ixp.ModeAllExcept {
		if len(f.Peers) == 0 {
			return "ANY"
		}
		return "ANY EXCEPT " + list()
	}
	return "ONLY " + list()
}

// parsePolicyLine parses an import or export attribute value produced
// by FormatImportLine/FormatExportLine (and tolerant of spacing).
func parsePolicyLine(value string) (*PolicyFilter, error) {
	fields := strings.Fields(value)
	if len(fields) < 3 {
		return nil, fmt.Errorf("irr: policy %q too short", value)
	}
	if fields[0] != "to" && fields[0] != "from" {
		return nil, fmt.Errorf("irr: policy %q must start with to/from", value)
	}
	peer, err := bgp.ParseASN(fields[1])
	if err != nil {
		return nil, fmt.Errorf("irr: policy %q: %w", value, err)
	}
	verb := fields[2]
	if verb != "announce" && verb != "accept" {
		return nil, fmt.Errorf("irr: policy %q: unknown verb %q", value, verb)
	}
	rest := fields[3:]
	pf := &PolicyFilter{Peer: peer}
	parseList := func(toks []string) ([]bgp.ASN, error) {
		joined := strings.Join(toks, " ")
		joined = strings.TrimPrefix(joined, "{")
		joined = strings.TrimSuffix(joined, "}")
		var out []bgp.ASN
		for _, tok := range strings.FieldsFunc(joined, func(c rune) bool {
			return c == ',' || c == ' ' || c == '{' || c == '}'
		}) {
			if tok == "" {
				continue
			}
			a, err := bgp.ParseASN(tok)
			if err != nil {
				return nil, fmt.Errorf("irr: policy %q: bad AS %q", value, tok)
			}
			out = append(out, a)
		}
		return out, nil
	}
	switch {
	case len(rest) == 1 && rest[0] == "ANY":
		pf.Filter = ixp.OpenFilter()
	case len(rest) >= 3 && rest[0] == "ANY" && rest[1] == "EXCEPT":
		asns, err := parseList(rest[2:])
		if err != nil {
			return nil, err
		}
		pf.Filter = ixp.NewExportFilter(ixp.ModeAllExcept, asns...)
	case len(rest) >= 2 && rest[0] == "ONLY":
		asns, err := parseList(rest[1:])
		if err != nil {
			return nil, err
		}
		pf.Filter = ixp.NewExportFilter(ixp.ModeNoneExcept, asns...)
	default:
		return nil, fmt.Errorf("irr: policy %q: unparseable filter expression", value)
	}
	return pf, nil
}

// RSFilters extracts a member's import and export filters toward the
// given route server ASN from its aut-num object. Either return may be
// nil when the member registered no policy for that direction.
func (r *Registry) RSFilters(member, rsASN bgp.ASN) (imp, exp *PolicyFilter, err error) {
	obj, ok := r.AutNum(member)
	if !ok {
		return nil, nil, nil
	}
	for _, line := range obj.All("import") {
		pf, perr := parsePolicyLine(line)
		if perr != nil {
			continue // foreign policy lines use full RPSL we don't model
		}
		if pf.Peer == rsASN {
			imp = pf
		}
	}
	for _, line := range obj.All("export") {
		pf, perr := parsePolicyLine(line)
		if perr != nil {
			continue
		}
		if pf.Peer == rsASN {
			exp = pf
		}
	}
	return imp, exp, nil
}
