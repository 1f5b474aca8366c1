package topology

import (
	"fmt"
	"sort"
)

// Stage is one composable world-construction step: a pure transform
// over the Builder's dense AS-index world.
type Stage struct {
	Name  string
	Apply func(*Builder) error
}

// stage adapts an error-free transform.
func stage(name string, f func(*Builder)) Stage {
	return Stage{Name: name, Apply: func(b *Builder) error { f(b); return nil }}
}

// Scenario is a named stage pipeline producing one world shape. The
// baseline scenario reproduces the paper's world; others splice extra
// stages into it (remote peering, hybrid multi-IXP presence,
// probabilistic relationship noise).
type Scenario struct {
	Name        string
	Description string
	Stages      []Stage
}

// Generate runs the scenario's stages over a fresh builder and
// materializes the world.
func (sc *Scenario) Generate(cfg Config) (*Topology, error) {
	if cfg.Scale <= 0 {
		return nil, fmt.Errorf("topology: scale must be positive, got %v", cfg.Scale)
	}
	if cfg.Profiles == nil {
		cfg.Profiles = PaperIXPProfiles()
	}
	b := NewBuilder(cfg)
	for _, st := range sc.Stages {
		if err := st.Apply(b); err != nil {
			return nil, fmt.Errorf("topology: scenario %s, stage %s: %w", sc.Name, st.Name, err)
		}
	}
	t, err := b.Finalize()
	if err != nil {
		return nil, fmt.Errorf("topology: scenario %s: %w", sc.Name, err)
	}
	return t, nil
}

var scenarios = make(map[string]*Scenario)

// RegisterScenario adds a scenario to the registry. It panics on a
// duplicate name; registration happens at init time.
func RegisterScenario(sc *Scenario) {
	if _, dup := scenarios[sc.Name]; dup {
		panic("topology: duplicate scenario " + sc.Name)
	}
	scenarios[sc.Name] = sc
}

// LookupScenario resolves a scenario name; the empty string means
// baseline.
func LookupScenario(name string) (*Scenario, bool) {
	if name == "" {
		name = "baseline"
	}
	sc, ok := scenarios[name]
	return sc, ok
}

// ScenarioNames lists registered scenarios, sorted.
func ScenarioNames() []string {
	out := make([]string, 0, len(scenarios))
	for name := range scenarios {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Scenarios lists registered scenarios, sorted by name.
func Scenarios() []*Scenario {
	var out []*Scenario
	for _, name := range ScenarioNames() {
		out = append(out, scenarios[name])
	}
	return out
}

// baselineStages is the paper-world pipeline. Order matters: membership
// must exist before filters, filters before the feeder throttling, and
// member data is encoded last.
func baselineStages() []Stage {
	return []Stage{
		{Name: "allocate-ases", Apply: (*Builder).allocateASes},
		stage("hierarchy", (*Builder).buildHierarchy),
		stage("siblings", (*Builder).addSiblings),
		stage("private-peering", (*Builder).addPrivatePeering),
		stage("prefixes", (*Builder).assignPrefixes),
		stage("ixps", (*Builder).buildIXPs),
		stage("filters", (*Builder).generateFilters),
		stage("bilateral-ixp", (*Builder).addBilateralIXPPeering),
		stage("feeders", (*Builder).pickFeeders),
		stage("looking-glasses", (*Builder).pickLookingGlasses),
		{Name: "member-data", Apply: (*Builder).finalizeMemberData},
	}
}

// insertAfter returns a copy of stages with extra spliced in directly
// after the named stage. It panics if the anchor is missing (scenario
// definitions are static).
func insertAfter(stages []Stage, after string, extra ...Stage) []Stage {
	for i, st := range stages {
		if st.Name == after {
			out := make([]Stage, 0, len(stages)+len(extra))
			out = append(out, stages[:i+1]...)
			out = append(out, extra...)
			out = append(out, stages[i+1:]...)
			return out
		}
	}
	panic("topology: no stage named " + after)
}

// insertBefore mirrors insertAfter for splicing ahead of the anchor
// (e.g. profile rewrites that must precede AS-pool allocation).
func insertBefore(stages []Stage, before string, extra ...Stage) []Stage {
	for i, st := range stages {
		if st.Name == before {
			out := make([]Stage, 0, len(stages)+len(extra))
			out = append(out, stages[:i]...)
			out = append(out, extra...)
			out = append(out, stages[i:]...)
			return out
		}
	}
	panic("topology: no stage named " + before)
}

func init() {
	RegisterScenario(&Scenario{
		Name:        "baseline",
		Description: "the paper's world: 13 IXPs (Table 2), tiered transit hierarchy, per-member RS filters",
		Stages:      baselineStages(),
	})
}
