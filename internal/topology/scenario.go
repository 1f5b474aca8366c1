package topology

import (
	"fmt"
	"slices"
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

// generate runs the scenario's stages over a fresh builder and
// materializes the world of a cfg that passed Check.
func (sc *Scenario) generate(cfg Config) (*Topology, error) {
	b := newBuilder(cfg)
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

// lookupScenario resolves a scenario name; the empty string means
// baseline.
func lookupScenario(name string) (*Scenario, bool) {
	if name == "" {
		name = "baseline"
	}
	for i := range scenarios {
		if scenarios[i].Name == name {
			return &scenarios[i], true
		}
	}
	return nil, false
}

// ScenarioNames lists the scenarios in table (name) order.
func ScenarioNames() []string {
	out := make([]string, len(scenarios))
	for i, sc := range scenarios {
		out[i] = sc.Name
	}
	return out
}

// Scenarios returns a copy of the scenario table, sorted by name.
func Scenarios() []Scenario { return slices.Clone(scenarios) }

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

// splice returns a copy of stages with extra inserted offset places
// past the named anchor: 0 puts extra directly before it, 1 directly
// after it. It panics if the anchor is missing (scenario definitions are
// static).
func splice(stages []Stage, anchor string, offset int, extra ...Stage) []Stage {
	i := slices.IndexFunc(stages, func(st Stage) bool { return st.Name == anchor })
	if i < 0 {
		panic("topology: no stage named " + anchor)
	}
	return slices.Insert(slices.Clone(stages), i+offset, extra...)
}
