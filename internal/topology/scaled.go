package topology

import (
	"fmt"

	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// The scaled-world scenario's profile stage. At 10-100x the interesting
// growth axis is the number of exchanges, not the size of one: remote-
// peering-era workloads mean hundreds of IXPs whose memberships overlap
// heavily, while even the largest real exchange stays within a few
// hundred route-server members. Scaling a single IXP's membership 100x
// would also exhaust its scheme's 16-bit private-ASN alias table (1023
// slots), so per-exchange membership is capped and the remaining scale
// budget becomes new regional exchanges.

// scaledMemberCap bounds one exchange's membership in the scaled world.
// Keeps the per-IXP filter tables realistic and the 32-bit-member alias
// demand far below the 1023-slot private range.
const scaledMemberCap = 700

// scaledMaxIXPs bounds the total profile count (the IXP LAN numbering
// plan supports ~200 /16s).
const scaledMaxIXPs = 198

// expandIXPProfiles rewrites the profile list for the scaled world: the
// paper's 13 IXPs grow with Scale up to the member cap, and the rest of
// the scale budget materializes as synthetic regional exchanges (about
// two per unit of Scale). Runs before allocate-ases so the AS pool is
// sized for the expanded membership demand. All sizes are marked
// Absolute: Config.Scale must not multiply them again downstream.
func (b *Builder) expandIXPProfiles() {
	rng := b.StageRNG("scaled-ixps")
	scale := b.Cfg.Scale

	profs := make([]IXPProfile, 0, len(b.profiles))
	usedRS := make(map[bgp.ASN]bool, scaledMaxIXPs)
	for _, p := range b.profiles {
		usedRS[p.RSASN] = true
		if !p.Absolute {
			m := int(float64(p.Members)*scale + 0.5)
			rs := int(float64(p.RSMembers)*scale + 0.5)
			if m > scaledMemberCap {
				rs = rs * scaledMemberCap / m
				m = scaledMemberCap
			}
			if m < 4 {
				m = 4
			}
			if rs < 4 {
				rs = 4
			}
			if rs > m {
				rs = m
			}
			p.Members, p.RSMembers, p.Absolute = m, rs, true
		}
		profs = append(profs, p)
	}

	extra := int(scale * 2)
	if extra+len(profs) > scaledMaxIXPs {
		extra = scaledMaxIXPs - len(profs)
	}

	// Regional spread of the synthetic exchanges, leaning European like
	// the route-server ecosystem the paper measured.
	regionDist := []regionWeight{
		{ixp.RegionWestEU, 22}, {ixp.RegionEastEU, 18}, {ixp.RegionNorthEU, 10},
		{ixp.RegionSouthEU, 12}, {ixp.RegionNorthAmerica, 14},
		{ixp.RegionAsiaPacific, 12}, {ixp.RegionLatinAmerica, 8}, {ixp.RegionAfrica, 4},
	}
	pickRegion := func() ixp.Region { return pickWeightedRegion(rng, regionDist) }

	// Synthetic RS ASNs come from the top of the public 16-bit space
	// (below the 63488+ reserved block); the AS allocation stage skips
	// whatever is used here.
	nextRS := bgp.ASN(58000)
	allocRS := func() bgp.ASN {
		for {
			a := nextRS
			nextRS += bgp.ASN(1 + rng.Intn(23))
			if !usedRS[a] && a < bgp.FirstReserved32 {
				usedRS[a] = true
				return a
			}
		}
	}

	for i := 0; i < extra; i++ {
		members := 30 + rng.Intn(91)
		rs := members * (70 + rng.Intn(26)) / 100
		if rs < 4 {
			rs = 4
		}
		hasLG := rng.Float64() < 0.70
		feeders := 0
		openness := 0.0
		if rng.Float64() < 0.35 {
			feeders = 1
			openness = 0.10 + 0.60*rng.Float64()
		}
		memberLGs := 0
		if !hasLG || rng.Float64() < 0.40 {
			memberLGs = 1
		}
		style := StyleStandard
		if rng.Float64() < 0.15 {
			style = StylePrivateRange
		}
		profs = append(profs, IXPProfile{
			Name:                fmt.Sprintf("RX-%03d", i+1),
			RSASN:               allocRS(),
			Region:              pickRegion(),
			Style:               style,
			Members:             members,
			RSMembers:           rs,
			HasLG:               hasLG,
			PublishesMemberList: rng.Float64() < 0.85,
			RSFeeders:           feeders,
			PassiveOpenness:     openness,
			MemberLGs:           memberLGs,
			FlatFee:             rng.Float64() < 0.80,
			Absolute:            true,
		})
	}
	b.profiles = profs
}
