package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"

	"mlpeering/internal/bgp"
	"mlpeering/internal/core"
	"mlpeering/internal/serve"
	"mlpeering/internal/topology"
)

func TestTailQuantile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{6, 0.5}, {19, 0.5}, {99, 0.5}, {100, 0.9}, {999, 0.9}, {1000, 0.99}, {10000, 0.999}} {
		if got := tailQuantile(tc.n); got != tc.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

// The expected values are Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2, 3, 4, 5}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(tc.v)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.v, got, tc.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5}); got != 1 {
		t.Errorf("spread = %v, want (4.5-1.5)/3", got)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "root", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "b", Start: 20, End: 50},  // overlaps a: counted once
		{ID: 3, Parent: 0, Name: "c", Start: 60, End: 120}, // clipped to the root
		{ID: 4, Parent: 2, Name: "d", Start: 25, End: 45},  // a grandchild is b's, not the root's
	}
	want := []int64{20, 20, 10, 60, 20}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	if got := coverage(spans, selfTimes(spans), "root"); got != 0.8 {
		t.Errorf("coverage = %v, want 0.8", got)
	}
}

func TestNilTracerIsUntraced(t *testing.T) {
	var tr *tracer
	id := tr.begin("x", -1, 0)
	tr.end(id)
	if got := mergeSpans(tr); got != nil {
		t.Errorf("nil tracer recorded %v", got)
	}
}

func TestEpochWatchFlagsStaleReads(t *testing.T) {
	var w epochWatch
	var stale, changed []uint64
	for _, e := range []uint64{1, 1, 2, 5, 3, 4, 5, 6} {
		s, c := w.observe(e)
		if s {
			stale = append(stale, e)
		} else if c {
			changed = append(changed, e)
		}
	}
	// 4 is stale too: it is lower than the 5 this client already saw.
	if want := []uint64{3, 4}; !reflect.DeepEqual(stale, want) {
		t.Errorf("stale = %v, want %v", stale, want)
	}
	if want := []uint64{1, 2, 5, 6}; !reflect.DeepEqual(changed, want) {
		t.Errorf("changed = %v, want %v", changed, want)
	}
}

func fakeSnapshot() *serve.Snapshot {
	res := &core.Result{
		PerIXP: map[string]*core.IXPInference{"AMS-IX": {}, "DE-CIX": {}, "LINX": {}},
		Links:  make(map[topology.LinkKey][]string),
	}
	for a := 100; a < 140; a++ {
		res.Links[topology.MakeLinkKey(bgp.ASN(a), bgp.ASN(a+1))] = []string{"AMS-IX"}
	}
	return &serve.Snapshot{Epoch: 1, Result: res}
}

func TestSampleTargetsDeterministicPerSeed(t *testing.T) {
	snap := fakeSnapshot()
	for workload, rotation := range rotations {
		a, b := sampleTargets(workload, 7, snap), sampleTargets(workload, 7, snap)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different URL lists", workload)
		}
		if reflect.DeepEqual(a, sampleTargets(workload, 8, snap)) {
			t.Errorf("%s: another seed gave the same URL list", workload)
		}
		if len(a) != numTargets {
			t.Fatalf("%s: %d targets, want %d", workload, len(a), numTargets)
		}
		for i, tg := range a {
			if tg.kind != rotation[i%4] {
				t.Fatalf("%s: target %d is %s, rotation says %s", workload, i, kindNames[tg.kind], kindNames[rotation[i%4]])
			}
			if a[tg.slot].path != tg.path {
				t.Fatalf("%s: target %d's ETag slot belongs to %s, not %s", workload, i, a[tg.slot].path, tg.path)
			}
			if tg.kind == kindLink {
				_, present := snap.Result.Links[topology.MakeLinkKey(tg.a, tg.b)]
				if want := i/4%2 == 0; present != want {
					t.Fatalf("%s: link target %d present=%v, want %v", workload, i, present, want)
				}
			}
		}
	}
}

// BENCHMARK.json is the contract the driver checks the harness
// against; the harness's own tables must say the same.
func TestBenchmarkJSONMatchesHarness(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	defs := func(ds []metricDef) []entry {
		var out []entry
		for _, d := range ds {
			out = append(out, entry{d.name, d.unit})
		}
		return out
	}
	if got := defs(endToEnd); !reflect.DeepEqual(spec.EndToEnd, got) {
		t.Errorf("end_to_end: BENCHMARK.json has %v, harness %v", spec.EndToEnd, got)
	}
	if got := defs(perLayer); !reflect.DeepEqual(spec.PerLayer, got) {
		t.Errorf("per_layer: BENCHMARK.json has %v, harness %v", spec.PerLayer, got)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if want := selected(options{workload: "all"}); !reflect.DeepEqual(names, want) {
		t.Errorf("workloads: BENCHMARK.json has %v, harness %v", names, want)
	}
}

// TestSmoke runs every workload in both modes at test scale with
// sub-second phases, so the root of the repo cannot change under the
// harness without a test noticing.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run takes several seconds")
	}
	for _, wl := range workloads {
		for trace := 0; trace <= 1; trace++ {
			opt := options{workload: wl.name, seed: 7, worldSeed: paperSeed, seconds: 0.3, trace: trace, smoke: true, out: t.TempDir()}
			line, err := runOne(opt, io.Discard)
			if err != nil {
				t.Fatal(err)
			}
			if !line.Correct || line.Failed != 0 || line.Attempted == 0 {
				t.Errorf("%s trace=%d: correct=%v attempted=%d failed=%d", wl.name, trace, line.Correct, line.Attempted, line.Failed)
			}
			want := endToEnd
			if trace == 1 {
				want = perLayer
			}
			if len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%d: %d metrics, want %d", wl.name, trace, len(line.Metrics), len(want))
			}
			for _, d := range want {
				m, ok := line.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%d: metric %s missing or in %q", wl.name, trace, d.name, m.Unit)
				}
				if trace == 0 && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", wl.name, d.name, m.Value)
				}
			}
		}
	}
}
