package topology

import (
	"mlpeering/internal/bgp"
	"mlpeering/internal/ixp"
)

// SchemeStyle selects the community encoding convention an IXP uses.
type SchemeStyle int

// Scheme styles (§3, Table 1).
const (
	// StyleStandard: DE-CIX-like, RS ASN embedded in most values.
	StyleStandard SchemeStyle = iota
	// StylePrivateRange: ECIX-like, actions encoded in the private ASN
	// range; only ALL reveals the IXP.
	StylePrivateRange
)

// IXPProfile parameterizes one IXP in the generated world. The shipped
// profiles mirror Table 2 of the paper.
type IXPProfile struct {
	Name      string
	RSASN     bgp.ASN
	Region    ixp.Region
	Style     SchemeStyle
	Members   int // "ASes" column of Table 2
	RSMembers int // "RS" column of Table 2

	// HasLG: the IXP runs a public LG with a route server view that
	// prints communities (France-IX's does not, hence false for it).
	HasLG bool

	// PublishesMemberList: RS member list available from the IXP
	// website or an AS-SET (false for LINX).
	PublishesMemberList bool

	// RSFeeders is how many RS members (or customers of RS members)
	// contribute full feeds to public collectors; 0 reproduces IXPs
	// with no passive visibility (SPB-IX, DTEL-IX, BIX.BG).
	RSFeeders int

	// PassiveOpenness approximates how open the RS feeders' import
	// policies are (1.0 = see everything the density allows). Low
	// values reproduce IXPs like MSK-IX whose passive coverage was
	// tiny despite having a feeder.
	PassiveOpenness float64

	// MemberLGs is how many third-party member looking glasses carry a
	// feed from this route server (used when HasLG is false, and for
	// validation).
	MemberLGs int

	// FlatFee drives the peering-density prior used in §5.7.
	FlatFee bool

	// StripsCommunities marks Netnod-style RSes that remove all
	// communities (none of the 13 studied IXPs do; kept for the
	// limitation experiments of §5.8).
	StripsCommunities bool

	// Absolute marks Members/RSMembers as final counts that
	// Config.Scale must not multiply. The scaled-world scenario uses it
	// to grow the number of IXPs with Scale while keeping each
	// exchange's membership realistic (and its 16-bit community alias
	// table satisfiable).
	Absolute bool
}

// PaperIXPProfiles returns the 13 IXPs of Table 2. RS ASNs for DE-CIX
// (6695), MSK-IX (8631), ECIX (9033) and LINX (8714) are the paper's;
// the others are stable synthetic assignments.
func PaperIXPProfiles() []IXPProfile {
	return []IXPProfile{
		{Name: "AMS-IX", RSASN: 6777, Region: ixp.RegionWestEU, Style: StyleStandard,
			Members: 574, RSMembers: 444, HasLG: false, PublishesMemberList: true,
			RSFeeders: 3, PassiveOpenness: 0.78, MemberLGs: 3, FlatFee: true},
		{Name: "DE-CIX", RSASN: 6695, Region: ixp.RegionWestEU, Style: StyleStandard,
			Members: 483, RSMembers: 369, HasLG: true, PublishesMemberList: true,
			RSFeeders: 1, PassiveOpenness: 0.36, MemberLGs: 2, FlatFee: true},
		{Name: "LINX", RSASN: 8714, Region: ixp.RegionWestEU, Style: StyleStandard,
			Members: 457, RSMembers: 230, HasLG: false, PublishesMemberList: false,
			RSFeeders: 2, PassiveOpenness: 0.85, MemberLGs: 2, FlatFee: true},
		{Name: "MSK-IX", RSASN: 8631, Region: ixp.RegionEastEU, Style: StyleStandard,
			Members: 374, RSMembers: 348, HasLG: true, PublishesMemberList: true,
			RSFeeders: 1, PassiveOpenness: 0.08, MemberLGs: 2, FlatFee: false},
		{Name: "PLIX", RSASN: 48850, Region: ixp.RegionEastEU, Style: StyleStandard,
			Members: 222, RSMembers: 211, HasLG: true, PublishesMemberList: true,
			RSFeeders: 1, PassiveOpenness: 0.20, MemberLGs: 1, FlatFee: true},
		{Name: "France-IX", RSASN: 51706, Region: ixp.RegionWestEU, Style: StyleStandard,
			Members: 193, RSMembers: 169, HasLG: false, PublishesMemberList: true,
			RSFeeders: 2, PassiveOpenness: 0.70, MemberLGs: 1, FlatFee: true},
		{Name: "LONAP", RSASN: 8550, Region: ixp.RegionWestEU, Style: StyleStandard,
			Members: 120, RSMembers: 109, HasLG: false, PublishesMemberList: true,
			RSFeeders: 1, PassiveOpenness: 0.32, MemberLGs: 2, FlatFee: true},
		{Name: "ECIX", RSASN: 9033, Region: ixp.RegionWestEU, Style: StylePrivateRange,
			Members: 102, RSMembers: 83, HasLG: true, PublishesMemberList: true,
			RSFeeders: 1, PassiveOpenness: 0.45, MemberLGs: 1, FlatFee: true},
		{Name: "SPB-IX", RSASN: 43690, Region: ixp.RegionEastEU, Style: StyleStandard,
			Members: 89, RSMembers: 78, HasLG: true, PublishesMemberList: true,
			RSFeeders: 0, PassiveOpenness: 0, MemberLGs: 1, FlatFee: false},
		{Name: "DTEL-IX", RSASN: 31210, Region: ixp.RegionEastEU, Style: StyleStandard,
			Members: 74, RSMembers: 71, HasLG: true, PublishesMemberList: true,
			RSFeeders: 0, PassiveOpenness: 0, MemberLGs: 1, FlatFee: true},
		{Name: "TOP-IX", RSASN: 16004, Region: ixp.RegionSouthEU, Style: StyleStandard,
			Members: 71, RSMembers: 52, HasLG: true, PublishesMemberList: true,
			RSFeeders: 1, PassiveOpenness: 0.40, MemberLGs: 1, FlatFee: true},
		{Name: "STHIX", RSASN: 35787, Region: ixp.RegionNorthEU, Style: StyleStandard,
			Members: 69, RSMembers: 42, HasLG: false, PublishesMemberList: true,
			RSFeeders: 1, PassiveOpenness: 0.10, MemberLGs: 1, FlatFee: true},
		{Name: "BIX.BG", RSASN: 57463, Region: ixp.RegionEastEU, Style: StyleStandard,
			Members: 53, RSMembers: 52, HasLG: true, PublishesMemberList: true,
			RSFeeders: 0, PassiveOpenness: 0, MemberLGs: 1, FlatFee: true},
	}
}

// World parameters the paper measured. They are fixed for every world;
// Config carries only what callers vary.
const (
	// numTier1 is the size of the transit-free clique.
	numTier1 = 12
	// transitFrac is the fraction of the AS pool that provides transit
	// (tier 2).
	transitFrac = 0.16
	// numContent is the number of large content networks.
	numContent = 12
	// registeredFrac is the fraction of IXP members with a PeeringDB
	// record (904/1667 in the paper).
	registeredFrac = 0.54
	// stripProb is the per-AS probability of stripping communities on
	// export, limiting passive visibility.
	stripProb = 0.65
	// bestPathLGFrac is the fraction of validation LGs that display
	// only the active path (Fig. 8's triangles).
	bestPathLGFrac = 0.20
	// prefersBilateralFrac is the fraction of validation-LG ASes whose
	// routers prefer bilateral peers over RS peers (14/70 in §5.1).
	prefersBilateralFrac = 0.20
	// meanPrefixesStub / meanPrefixesTransit control prefix counts.
	meanPrefixesStub, meanPrefixesTransit = 2, 6
)

// Config parameterizes generation.
type Config struct {
	// Seed drives all randomness; equal seeds give identical worlds.
	Seed int64

	// Scenario names the registered world-construction scenario to run;
	// empty means "baseline" (the paper's world). See ScenarioNames.
	Scenario string

	// Scale multiplies IXP membership counts and the AS pool. 1.0 is
	// paper scale (~1,700 distinct IXP members); tests use ~0.15.
	Scale float64

	// ValidationLGs is the number of third-party LGs used by the
	// validation engine (70 in the paper).
	ValidationLGs int

	// ExtraFeeders adds non-RS transit feeders to collectors, building
	// out the public view.
	ExtraFeeders int
}

// DefaultConfig is full paper scale.
func DefaultConfig() Config {
	return Config{
		Seed:          20130501,
		Scale:         1.0,
		ValidationLGs: 70,
		ExtraFeeders:  30,
	}
}

// TestConfig is a small world for unit tests and quick benchmarks.
func TestConfig() Config {
	c := DefaultConfig()
	c.Scale = 0.12
	c.ValidationLGs = 16
	c.ExtraFeeders = 8
	return c
}

// scaled returns n scaled by the config's Scale, minimum 1 (minimum 4
// for membership counts so that filters stay meaningful).
func (c Config) scaled(n int) int {
	v := int(float64(n)*c.Scale + 0.5)
	if v < 4 {
		v = 4
	}
	return v
}

// memberTarget returns the membership size to build for prof.
func (c Config) memberTarget(prof IXPProfile) int {
	if prof.Absolute {
		if prof.Members < 4 {
			return 4
		}
		return prof.Members
	}
	return c.scaled(prof.Members)
}

// rsMemberTarget returns the route-server membership size for prof.
func (c Config) rsMemberTarget(prof IXPProfile) int {
	if prof.Absolute {
		if prof.RSMembers < 4 {
			return 4
		}
		return prof.RSMembers
	}
	return c.scaled(prof.RSMembers)
}
