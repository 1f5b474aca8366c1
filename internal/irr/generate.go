package irr

import (
	"math/rand"
	"strings"

	"mlpeering/internal/bgp"
	"mlpeering/internal/topology"
)

// ASSetName returns the canonical as-set name for an IXP's route server
// members.
func ASSetName(ixpName string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z':
			return r - 32
		case r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, ixpName)
	return "AS-" + clean + "-RSMEMBERS"
}

// registrationFrac is the probability an AS registers an accurate
// aut-num/as-set in the IRR (drives LINX-style discovery and §4.4
// reciprocity validation).
const registrationFrac = 0.77

// Build generates IRR contents from the topology's ground truth:
//
//   - an as-set per IXP that publishes its RS member list,
//   - an aut-num per registered member carrying import/export policy
//     lines toward each route server it is connected to (the §4.4 data),
//   - registration is probabilistic (registrationFrac), except that
//     members of list-publishing IXPs always appear in the as-set (the
//     set is maintained by the IXP, not the member).
//
// IRR contents mirror reality: accurate where generated, but silent for
// unregistered networks.
func Build(topo *topology.Topology, seed int64) *Registry {
	rng := rand.New(rand.NewSource(seed))
	reg := NewRegistry()

	registered := make(map[bgp.ASN]bool)
	for _, asn := range topo.Order {
		if rng.Float64() < registrationFrac {
			registered[asn] = true
		}
	}

	// Per-member policy lines toward each of their route servers.
	type policyLines struct {
		imports, exports []string
	}
	perMember := make(map[bgp.ASN]*policyLines)
	for _, info := range topo.IXPs {
		for _, m := range info.SortedRSMembers() {
			if !registered[m] {
				continue
			}
			exp, okE := topo.ExportFilter(info.Name, m)
			imp, okI := topo.ImportFilter(info.Name, m)
			if !okE || !okI {
				continue
			}
			pl := perMember[m]
			if pl == nil {
				pl = &policyLines{}
				perMember[m] = pl
			}
			pl.imports = append(pl.imports, FormatImportLine(info.Scheme.RSASN, imp))
			pl.exports = append(pl.exports, FormatExportLine(info.Scheme.RSASN, exp))
		}
	}
	for _, asn := range topo.Order {
		pl, ok := perMember[asn]
		if !ok {
			continue
		}
		o := &Object{}
		o.Attrs = append(o.Attrs,
			Attr{"aut-num", "AS" + asn.String()},
			Attr{"as-name", topo.ASes[asn].Name},
		)
		for _, l := range pl.imports {
			o.Attrs = append(o.Attrs, Attr{"import", l})
		}
		for _, l := range pl.exports {
			o.Attrs = append(o.Attrs, Attr{"export", l})
		}
		o.Attrs = append(o.Attrs, Attr{"source", "SYNTH"})
		reg.Add(o)
	}

	// IXP-maintained as-sets.
	for _, info := range topo.IXPs {
		if !info.PublishesMemberList {
			continue
		}
		o := &Object{}
		o.Attrs = append(o.Attrs, Attr{"as-set", ASSetName(info.Name)})
		var sb strings.Builder
		for i, m := range info.SortedRSMembers() {
			if i > 0 {
				sb.WriteString(", ")
			}
			sb.WriteString("AS" + m.String())
		}
		o.Attrs = append(o.Attrs,
			Attr{"members", sb.String()},
			Attr{"descr", info.Name + " route server members"},
			Attr{"source", "SYNTH"},
		)
		reg.Add(o)
	}
	return reg
}
