package core

import (
	"context"
	"maps"
	"slices"
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/geo"
	"mlpeering/internal/lg"
	"mlpeering/internal/relation"
	"mlpeering/internal/topology"
)

// ValidationLG is a third-party looking glass used to confirm links.
type ValidationLG struct {
	Client   *lg.Client
	Host     bgp.ASN
	AllPaths bool
}

// maxValidationPrefixes caps the prefixes one LG queries per link (6 in
// the paper, §5.1).
const maxValidationPrefixes = 6

// Validator checks inferred links against looking glasses (§5.1): for
// every link relevant to an LG it queries up to maxValidationPrefixes
// geographically distant prefixes of the far endpoint and looks for the
// link in the returned AS paths.
type Validator struct {
	LGs []ValidationLG
	Geo *geo.Database
	// PrefixesByOrigin indexes publicly known prefixes by origin AS
	// (from passive data).
	PrefixesByOrigin map[bgp.ASN][]bgp.Prefix
	// Rels supplies customer relationships for LG relevance: an LG is
	// relevant to a link if its host is an endpoint or a customer of
	// one.
	Rels *relation.Inference
}

// LGOutcome aggregates one looking glass's validation performance
// (Fig. 8: one point per LG).
type LGOutcome struct {
	Host      bgp.ASN
	AllPaths  bool
	Tested    int
	Confirmed int
}

// Fraction returns the confirmed fraction (1 for an idle LG).
func (o LGOutcome) Fraction() float64 {
	if o.Tested == 0 {
		return 1
	}
	return float64(o.Confirmed) / float64(o.Tested)
}

// ValidationResult summarizes a validation run.
type ValidationResult struct {
	// Tested / Confirmed count distinct links.
	Tested, Confirmed int
	// PerIXP breaks the counts down by IXP (Table 3).
	PerIXP map[string]struct{ Tested, Confirmed int }
	// PerLG holds per-looking-glass outcomes (Fig. 8). A link tested by
	// several LGs counts at each of them.
	PerLG []LGOutcome
}

// ConfirmedFraction returns the overall confirmation rate.
func (v *ValidationResult) ConfirmedFraction() float64 {
	if v.Tested == 0 {
		return 0
	}
	return float64(v.Confirmed) / float64(v.Tested)
}

// relevant reports whether the LG host can see the link (a,b): it is an
// endpoint or a direct customer of one.
func (v *Validator) relevant(host, a, b bgp.ASN) bool {
	if host == a || host == b {
		return true
	}
	if v.Rels == nil {
		return false
	}
	return v.Rels.Relationship(host, a) == relation.RelC2P ||
		v.Rels.Relationship(host, b) == relation.RelC2P
}

// pathContains reports whether asn appears in the displayed path.
func pathContains(path []bgp.ASN, asn bgp.ASN) bool {
	for _, x := range path {
		if x == asn {
			return true
		}
	}
	return false
}

// pathConfirms reports whether the displayed path contains the
// adjacency a-b in either direction. The LG host itself is the implicit
// first hop, so a path starting at b confirms a link a-b when host==a.
func pathConfirms(host bgp.ASN, path []bgp.ASN, a, b bgp.ASN) bool {
	full := append([]bgp.ASN{host}, path...)
	for i := 0; i+1 < len(full); i++ {
		x, y := full[i], full[i+1]
		if (x == a && y == b) || (x == b && y == a) {
			return true
		}
	}
	return false
}

// Validate tests the given inference result. Links are attributed to
// IXPs per result.Links; a link inferred at several IXPs counts toward
// each one's Table-3 row, like the paper's per-IXP accounting.
func (v *Validator) Validate(ctx context.Context, result *Result) (*ValidationResult, error) {
	out := &ValidationResult{PerIXP: make(map[string]struct{ Tested, Confirmed int })}

	// Deterministic link order.
	links := slices.SortedFunc(maps.Keys(result.Links), topology.CompareLinkKeys)

	perLG := make(map[bgp.ASN]*LGOutcome, len(v.LGs))
	for _, l := range v.LGs {
		perLG[l.Host] = &LGOutcome{Host: l.Host, AllPaths: l.AllPaths}
	}

	for _, link := range links {
		tested, confirmed := false, false
		for _, l := range v.LGs {
			if !v.relevant(l.Host, link.A, link.B) {
				continue
			}
			// Query prefixes of the endpoint farther from the host.
			far := link.A
			if l.Host == link.A || (v.Rels != nil && v.Rels.Relationship(l.Host, link.A) == relation.RelC2P) {
				far = link.B
			}
			near := link.A
			if far == link.A {
				near = link.B
			}
			prefixes := v.PrefixesByOrigin[far]
			if len(prefixes) == 0 {
				continue
			}
			chosen := v.Geo.SpreadSelect(prefixes, maxValidationPrefixes)
			lgTested := false
			lgConfirmed := false
			for _, p := range chosen {
				paths, err := l.Client.Lookup(ctx, p)
				if err != nil {
					return nil, err
				}
				if len(paths) == 0 {
					continue
				}
				for _, pi := range paths {
					// A query exercises the link only when the LG's
					// view reaches the near endpoint at all; paths that
					// route around it say nothing about the link (§5.1:
					// "not observing a link does not necessarily mean
					// that it does not exist"). When it does reach it
					// but prefers another way onward, that is the
					// paper's "more preferred path existed" failure.
					if l.Host == near || pathContains(pi.Path, near) {
						lgTested = true
					}
					if pathConfirms(l.Host, pi.Path, link.A, link.B) {
						lgConfirmed = true
						break
					}
				}
				if lgConfirmed {
					lgTested = true
					break
				}
			}
			if lgTested {
				tested = true
				o := perLG[l.Host]
				o.Tested++
				if lgConfirmed {
					confirmed = true
					o.Confirmed++
				}
			}
			if confirmed {
				break // no need to burden further LGs
			}
		}
		if !tested {
			continue
		}
		out.Tested++
		if confirmed {
			out.Confirmed++
		}
		for _, ixpName := range result.Links[link] {
			agg := out.PerIXP[ixpName]
			agg.Tested++
			if confirmed {
				agg.Confirmed++
			}
			out.PerIXP[ixpName] = agg
		}
	}

	hosts := make([]bgp.ASN, 0, len(perLG))
	for h := range perLG {
		hosts = append(hosts, h)
	}
	sort.Slice(hosts, func(i, j int) bool { return hosts[i] < hosts[j] })
	for _, h := range hosts {
		out.PerLG = append(out.PerLG, *perLG[h])
	}
	return out, nil
}
