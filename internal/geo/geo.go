// Package geo is the MaxMind-GeoLite stand-in: a prefix-to-region
// database used to pick geographically distant validation prefixes
// (§5.1 selects up to six prefixes "as geographically distant from each
// other as possible").
package geo

import (
	"sort"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// Database maps prefixes to coarse regions.
type Database struct {
	regions map[bgp.Prefix]ixp.Region
}

// New builds a database from explicit assignments (typically the
// topology's PrefixRegions ground truth — a real deployment would load
// MaxMind instead).
func New(assignments map[bgp.Prefix]ixp.Region) *Database {
	cp := make(map[bgp.Prefix]ixp.Region, len(assignments))
	for p, r := range assignments {
		cp[p] = r
	}
	return &Database{regions: cp}
}

// regionDistance is a coarse pairwise distance between regions: 0 for
// identical, 1 within Europe, 2 across continents.
func regionDistance(a, b ixp.Region) int {
	switch {
	case a == b:
		return 0
	case a.IsEurope() && b.IsEurope():
		return 1
	default:
		return 2
	}
}

// SpreadSelect picks up to k prefixes maximizing geographic diversity:
// a greedy farthest-point selection, deterministic for equal inputs.
// Prefixes missing from the database are used last.
func (d *Database) SpreadSelect(prefixes []bgp.Prefix, k int) []bgp.Prefix {
	if k <= 0 || len(prefixes) == 0 {
		return nil
	}
	sorted := append([]bgp.Prefix(nil), prefixes...)
	sort.Slice(sorted, func(i, j int) bool { return bgp.ComparePrefixes(sorted[i], sorted[j]) < 0 })
	if k > len(sorted) {
		k = len(sorted)
	}

	type cand struct {
		p     bgp.Prefix
		r     ixp.Region
		known bool
	}
	cands := make([]cand, 0, len(sorted))
	for _, p := range sorted {
		r, ok := d.regions[p]
		cands = append(cands, cand{p: p, r: r, known: ok})
	}

	chosen := make([]cand, 0, k)
	used := make([]bool, len(cands))
	// Seed with the first known prefix (or the first at all).
	seed := 0
	for i, c := range cands {
		if c.known {
			seed = i
			break
		}
	}
	chosen = append(chosen, cands[seed])
	used[seed] = true

	for len(chosen) < k {
		bestIdx, bestScore := -1, -1
		for i, c := range cands {
			if used[i] {
				continue
			}
			score := 0
			if c.known {
				// Distance to the nearest already-chosen prefix.
				minD := 1 << 30
				for _, ch := range chosen {
					dd := 2
					if ch.known {
						dd = regionDistance(c.r, ch.r)
					}
					if dd < minD {
						minD = dd
					}
				}
				score = minD*10 + 1 // known entries beat unknown at equal spread
			}
			if score > bestScore {
				bestScore, bestIdx = score, i
			}
		}
		if bestIdx < 0 {
			break
		}
		chosen = append(chosen, cands[bestIdx])
		used[bestIdx] = true
	}

	out := make([]bgp.Prefix, len(chosen))
	for i, c := range chosen {
		out[i] = c.p
	}
	return out
}
