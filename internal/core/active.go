package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"sync"

	"mlpeering/internal/bgp"
	"mlpeering/internal/lg"
)

// MemberLG is a third-party looking glass run by an RS member, used for
// IXPs that do not expose their route servers directly (§4.1: "we can
// obtain RS communities from third-party LGs of networks connected to
// the IXP").
type MemberLG struct {
	Client *lg.Client
	Host   bgp.ASN
}

// IXPLGs lists the looking glasses available for one IXP.
type IXPLGs struct {
	// RS is the IXP's own route-server LG (nil when unavailable).
	RS *lg.Client
	// Members are third-party member LGs carrying the RS feed.
	Members []MemberLG
}

// The survey samples what §4.3 samples: 10 % of each member's
// prefixes, at most 100.
const (
	samplePct            = 0.10
	maxPrefixesPerMember = 100
)

// ActiveConfig switches the two §4.3 query-cost optimizations.
type ActiveConfig struct {
	// SkipPassiveCovered enables the equation-(2) optimization: members
	// already covered by passive data are not queried.
	SkipPassiveCovered bool
	// SortByMultiplicity enables the §4.3 optimization of querying
	// prefixes advertised by many members first.
	SortByMultiplicity bool
}

// DefaultActiveConfig returns the paper's settings.
func DefaultActiveConfig() ActiveConfig {
	return ActiveConfig{SkipPassiveCovered: true, SortByMultiplicity: true}
}

// ActiveResult is the outcome of the LG survey.
type ActiveResult struct {
	Obs *Observations
	// QueriesPerIXP is the measured cost c per IXP (equations 1/2).
	QueriesPerIXP map[string]int
	// MembersQueried counts neighbor-routes queries per IXP.
	MembersQueried map[string]int
	// PrefixMultiplicity records, per IXP, how many queried members
	// advertised each prefix (the Fig. 5 distribution).
	PrefixMultiplicity map[string]map[bgp.Prefix]int
}

// TotalQueries sums the per-IXP costs.
func (r *ActiveResult) TotalQueries() int {
	n := 0
	for _, q := range r.QueriesPerIXP {
		n += q
	}
	return n
}

// RunActive surveys every IXP's looking glasses per §4.1/§4.3.
// prefixHints maps origin ASes to prefixes they are known to originate
// (from passive data, e.g. PassiveResult.PrefixesByOrigin); it steers
// third-party member LG queries, which walk each member's hints in
// ascending prefix order whatever order the caller built them in, so
// the observations do not depend on it. Each IXP's survey runs on its
// own goroutine.
//
// The first survey error cancels the in-flight sibling surveys and is
// returned once they drain; whatever observations each survey collected
// before failing (or being cancelled) is still merged into the result,
// so a partial ActiveResult accompanies the error.
func RunActive(ctx context.Context, dict *Dictionary, lgs map[string]IXPLGs,
	passive *Observations, prefixHints map[bgp.ASN][]bgp.Prefix, cfg ActiveConfig) (*ActiveResult, error) {

	res := &ActiveResult{
		Obs:                NewObservations(),
		QueriesPerIXP:      make(map[string]int),
		MembersQueried:     make(map[string]int),
		PrefixMultiplicity: make(map[string]map[bgp.Prefix]int),
	}

	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	var firstErr error
	var wg sync.WaitGroup
	run := func(entry *IXPEntry, endpoints IXPLGs) {
		defer wg.Done()
		obs := NewObservations()
		var queries, membersQueried int
		var mult map[bgp.Prefix]int
		var err error
		if endpoints.RS != nil {
			queries, membersQueried, mult, err = surveyRSLG(ctx, entry, endpoints.RS, passive, cfg, obs)
		} else if len(endpoints.Members) > 0 {
			queries, membersQueried, err = surveyMemberLGs(ctx, entry, endpoints.Members, passive, prefixHints, cfg, obs)
		} else {
			return
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("core: active survey of %s: %w", entry.Name, err)
			cancel() // abort in-flight sibling surveys
		}
		// Merge even on error: a failed or cancelled survey's partial
		// observations are still valid measurements.
		res.Obs.Merge(obs)
		res.QueriesPerIXP[entry.Name] += queries
		res.MembersQueried[entry.Name] += membersQueried
		if mult != nil {
			res.PrefixMultiplicity[entry.Name] = mult
		}
	}

	for _, entry := range dict.Entries {
		endpoints, ok := lgs[entry.Name]
		if !ok {
			continue
		}
		wg.Add(1)
		go run(entry, endpoints)
	}
	wg.Wait()
	return res, firstErr
}

// sampleTarget returns P'_a: how many of a member's |Pa| prefixes we
// want community data for at sampling rate pct (samplePct in the
// survey): ceil(|Pa| * pct), clamped to [1, maxPrefixesPerMember]. The
// product is computed in float — an integer percentage (int(pct*100))
// truncates rates like 0.29 to 28% and under-samples — with a small
// epsilon so representation noise (10 * 0.1 = 1.0000000000000002)
// cannot round a whole target up.
func sampleTarget(numPrefixes int, pct float64) int {
	if numPrefixes == 0 {
		return 0
	}
	t := int(math.Ceil(float64(numPrefixes)*pct - 1e-9))
	if t < 1 {
		t = 1
	}
	if t > maxPrefixesPerMember {
		t = maxPrefixesPerMember
	}
	return t
}

// surveyRSLG implements steps 1-3 of §4.1 against an IXP's own LG.
func surveyRSLG(ctx context.Context, entry *IXPEntry, client *lg.Client,
	passive *Observations, cfg ActiveConfig, obs *Observations) (queries, membersQueried int, mult map[bgp.Prefix]int, err error) {

	client.ResetQueryCount()

	// Step 1: connectivity from the LG (the most reliable source).
	peers, err := client.Summary(ctx)
	if err != nil {
		return client.QueryCount(), 0, nil, err
	}
	members := make([]bgp.ASN, 0, len(peers))
	addrOf := make(map[bgp.ASN]lg.PeerSummary, len(peers))
	for _, p := range peers {
		members = append(members, p.ASN)
		addrOf[p.ASN] = p
	}
	entry.SetMembers(members, SourceLG)

	// Step 2: per-member advertised prefixes, skipping passive-covered
	// members (equation 2).
	need := make(map[bgp.ASN]int)
	advertisers := make(map[bgp.Prefix][]bgp.ASN)
	slices.Sort(members)
	for _, m := range members {
		if cfg.SkipPassiveCovered && passive != nil && passive.Covered(entry.Name, m) {
			// Equation (2): no queries for this member, but its
			// passively observed prefix set still informs multiplicity
			// accounting and prefix ordering.
			for _, p := range passive.Prefixes(entry.Name, m) {
				advertisers[p] = append(advertisers[p], m)
			}
			continue
		}
		prefixes, err := client.NeighborRoutes(ctx, addrOf[m].Addr)
		if err != nil {
			return client.QueryCount(), membersQueried, nil, err
		}
		membersQueried++
		need[m] = sampleTarget(len(prefixes), samplePct)
		for _, p := range prefixes {
			advertisers[p] = append(advertisers[p], m)
		}
	}

	mult = make(map[bgp.Prefix]int, len(advertisers))
	for p, as := range advertisers {
		mult[p] = len(as)
	}

	// Step 3: prefix queries, most-advertised first (§4.3) so one query
	// covers several members.
	type ranked struct {
		p bgp.Prefix
		n int
	}
	order := make([]ranked, 0, len(advertisers))
	for p, as := range advertisers {
		order = append(order, ranked{p, len(as)})
	}
	slices.SortFunc(order, func(a, b ranked) int {
		if cfg.SortByMultiplicity && a.n != b.n {
			return cmp.Compare(b.n, a.n)
		}
		return bgp.ComparePrefixes(a.p, b.p)
	})

	pending := 0
	for _, n := range need {
		if n > 0 {
			pending++
		}
	}
	for _, r := range order {
		p := r.p
		if pending == 0 {
			break
		}
		useful := false
		for _, m := range advertisers[p] {
			if need[m] > 0 {
				useful = true
				break
			}
		}
		if !useful {
			continue
		}
		paths, err := client.Lookup(ctx, p)
		if err != nil {
			return client.QueryCount(), membersQueried, mult, err
		}
		for _, pi := range paths {
			if len(pi.Path) == 0 {
				continue
			}
			setter := pi.Path[0]
			if !entry.IsMember(setter) {
				continue
			}
			rel := entry.Scheme.RelevantCommunities(pi.Communities)
			obs.Add(entry.Name, setter, p, rel, ObsActive)
			if need[setter] > 0 {
				need[setter]--
				if need[setter] == 0 {
					pending--
				}
			}
		}
	}
	return client.QueryCount(), membersQueried, mult, nil
}

// surveyMemberLGs queries third-party member LGs: for each uncovered RS
// member, look up a sample of the prefixes it is known to originate and
// read the communities off the returned paths. Coverage is partial by
// nature: only setters that export toward the LG host are visible.
func surveyMemberLGs(ctx context.Context, entry *IXPEntry, lgs []MemberLG,
	passive *Observations, prefixHints map[bgp.ASN][]bgp.Prefix, cfg ActiveConfig, obs *Observations) (queries, membersQueried int, err error) {

	for _, m := range lgs {
		m.Client.ResetQueryCount()
	}
	lgIdx := 0
	for _, member := range entry.Members() {
		if cfg.SkipPassiveCovered && passive != nil && passive.Covered(entry.Name, member) {
			continue
		}
		hints := slices.SortedFunc(slices.Values(prefixHints[member]), bgp.ComparePrefixes)
		if len(hints) == 0 {
			continue
		}
		membersQueried++
		target := sampleTarget(len(hints), samplePct)
		for _, p := range hints {
			if target == 0 {
				break
			}
			// Round-robin across the available member LGs.
			mlg := lgs[lgIdx%len(lgs)]
			lgIdx++
			paths, err := mlg.Client.Lookup(ctx, p)
			if err != nil {
				return tally(lgs), membersQueried, err
			}
			got := false
			for _, pi := range paths {
				if len(pi.Path) == 0 || pi.Path[0] != member {
					continue
				}
				if len(pi.Communities) == 0 {
					continue
				}
				rel := entry.Scheme.RelevantCommunities(pi.Communities)
				if len(rel) == 0 {
					continue
				}
				obs.Add(entry.Name, member, p, rel, ObsActive)
				got = true
			}
			if got {
				target--
			}
		}
	}
	return tally(lgs), membersQueried, nil
}

func tally(lgs []MemberLG) int {
	n := 0
	for _, m := range lgs {
		n += m.Client.QueryCount()
	}
	return n
}
