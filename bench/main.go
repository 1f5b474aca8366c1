// Command mlpbench is the repo benchmark: four paper-scale workloads
// measured end to end (untraced) and layer by layer (a second, traced
// run that wraps every call into a layer's public function in an
// in-memory span). It measures from outside — it times calls, it does
// not instrument the program — and it checks that every output is
// correct. See README.md for the metric glossary and BENCHMARK.json, at
// the repo root, for the contract later PRs are judged with.
//
// One process runs one (workload, traced-or-not) pair and prints every
// metric as `name value unit`, then one JSON object on the last line.
// Asked for more — every workload, both modes, repeats over seeds — it
// re-runs itself once per pair, so every measurement starts from a
// fresh process exactly as the benchmark driver's do.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mlpeering/internal/churn"
	"mlpeering/internal/topology"
)

// paperSeed is the paper's collection date; it names the one world,
// and the one churn schedule over it, that every workload runs on
// unless -world-seed says otherwise. The world is pinned because the
// work it holds is not: across topology seeds RunInference takes 0.65
// to 2.2 s, and across churn seeds the trace build 7.6 to 9.8 s, so a
// run seed that re-drew them would bury every regression bound. The
// run seed draws what leaves the amount of work alone: the URL list,
// the sampled destinations, which responses are byte-checked.
const paperSeed = 20130501

type options struct {
	workload  string
	seed      int64
	worldSeed int64
	seconds   float64
	trace     int
	repeat    int
	smoke     bool
	out       string
}

// metric is one reported number. N is the sample count behind a
// quantile (0 where the value is a single measurement or a count).
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
	Note  string  `json:"note,omitempty"`
}

type metricDef struct{ name, unit string }

// endToEnd are the bounded metrics of BENCHMARK.json. The driver wants
// every one of them from every workload, so they are named for the role
// a number plays rather than for one workload; README.md maps each to
// the workload-specific name printed above it.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_ms_tail", "ms"},
	{"live_heap_mb", "MB"},
}

type workloadDef struct {
	name string
	run  func(*run)
}

var workloads = []workloadDef{
	{"batch-paper", runBatch},
	{"churn-paper", runChurn},
	{"serve-point", runServe},
	{"serve-bulk", runServe},
}

// run is the state of one workload run: its inputs, the span recorder
// (nil when untraced), the op ledger and the metrics gathered so far.
type run struct {
	opt      options
	workload string
	cfg      topology.Config
	churn    churn.Config
	clients  int
	start    time.Time

	tr         *tracer
	spans      []span     // merged at the end of a traced run
	traceBuild traceBuild // churn-paper's decomposed set-up

	attempted, failed int
	failures          []string

	named    []metric           // workload-specific end-to-end metrics
	headline map[string]float64 // endToEnd values
	layers   map[string]metric  // perLayer values
}

func newRun(opt options, workload string) *run {
	r := &run{
		opt:      opt,
		workload: workload,
		cfg:      topology.DefaultConfig(),
		churn:    churn.DefaultConfig(opt.worldSeed),
		clients:  min(runtime.NumCPU(), 4),
		start:    time.Now(),
		headline: make(map[string]float64),
		layers:   make(map[string]metric),
	}
	if opt.smoke {
		r.cfg = topology.TestConfig()
	}
	r.cfg.Seed = opt.worldSeed
	r.churn.Epochs = 12
	r.churn.Interval = time.Minute
	if opt.trace == 1 {
		r.tr = newTracer(r.start)
	}
	return r
}

func (r *run) traced() bool { return r.tr != nil }

// budget is the length of one measured phase.
func (r *run) budget() time.Duration {
	return time.Duration(r.opt.seconds * float64(time.Second))
}

// op books one operation; a non-nil err is a failed correctness check
// or a failed request.
func (r *run) op(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 10 {
			r.failures = append(r.failures, err.Error())
		}
	}
}

// e2e records a workload-specific end-to-end metric (untraced runs).
func (r *run) e2e(name string, value float64, unit string, n int) {
	r.named = append(r.named, metric{Name: name, Value: value, Unit: unit, N: n})
}

// e2eTail records a percentile beyond the median and says so when the
// sample is too small for the reporting rule to support it.
func (r *run) e2eTail(name string, sample []float64, q float64, unit string) {
	m := metric{Name: name, Value: quantile(sample, q), Unit: unit, N: len(sample)}
	if q > tailQuantile(len(sample)) {
		m.Note = "under-sampled: fewer than ten samples beyond this percentile"
	}
	r.named = append(r.named, m)
}

// layer records a per-layer metric (traced runs). The name must be in
// perLayer: the driver is promised exactly that set.
func (r *run) layer(name string, value float64, n int) {
	for _, d := range perLayer {
		if d.name == name {
			r.layers[name] = metric{Name: name, Value: value, Unit: d.unit, N: n}
			return
		}
	}
	panic("bench: per-layer metric " + name + " is not declared in perLayer")
}

// liveHeapMB is HeapAlloc after a forced collection; the caller keeps
// the state it wants counted reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// report is what a run leaves behind in bench/out and, trimmed to the
// driver's keys, on its last output line.
type report struct {
	Meta      meta     `json:"meta"`
	Correct   bool     `json:"correct"`
	Attempted int      `json:"attempted"`
	Failed    int      `json:"failed"`
	Failures  []string `json:"failures,omitempty"`
	EndToEnd  []metric `json:"end_to_end,omitempty"`
	Contract  []metric `json:"contract,omitempty"`
	PerLayer  []metric `json:"per_layer,omitempty"`
}

type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finish prints every metric, writes the result files and returns the
// driver's line.
func (r *run) finish(w io.Writer) driverLine {
	rep := report{
		Meta:      r.meta(),
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Failures:  r.failures,
	}
	line := driverLine{Correct: rep.Correct, Attempted: r.attempted, Failed: r.failed, Metrics: make(map[string]driverValue)}
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}

	file := "BENCH_" + r.workload + ".json"
	if r.traced() {
		file = "BENCH_" + r.workload + ".layers.json"
		r.layer("bench.fail_frac", failFrac, 0)
		for _, d := range perLayer {
			// A layer this workload bypasses did no work here: it
			// reads 0 for the driver and is not printed or filed.
			m, measured := r.layers[d.name]
			if measured {
				rep.PerLayer = append(rep.PerLayer, m)
			}
			line.Metrics[d.name] = driverValue{m.Value, d.unit}
		}
		printMetrics(w, rep.PerLayer)
	} else {
		r.e2e("fail_frac", failFrac, "ratio", r.attempted)
		rep.EndToEnd = r.named
		for _, d := range endToEnd {
			m := metric{Name: d.name, Value: r.headline[d.name], Unit: d.unit}
			rep.Contract = append(rep.Contract, m)
			line.Metrics[d.name] = driverValue{m.Value, m.Unit}
		}
		printMetrics(w, rep.EndToEnd)
		printMetrics(w, rep.Contract)
	}
	fmt.Fprintf(w, "attempted %d ops, failed %d\n", r.attempted, r.failed)
	for _, f := range r.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}

	if r.opt.out != "" {
		if err := writeJSON(filepath.Join(r.opt.out, file), rep); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
		}
		if r.traced() {
			dump := struct {
				Meta  meta   `json:"meta"`
				Spans []span `json:"spans"`
			}{rep.Meta, r.spans}
			if err := writeJSON(filepath.Join(r.opt.out, "trace-"+r.workload+".json"), dump); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}
	}
	return line
}

func printMetrics(w io.Writer, ms []metric) {
	for _, m := range ms {
		fmt.Fprintf(w, "%-28s %14.6g %-6s", m.Name, m.Value, m.Unit)
		if m.N > 0 {
			fmt.Fprintf(w, " n=%d", m.N)
		}
		if m.Note != "" {
			fmt.Fprintf(w, " (%s)", m.Note)
		}
		fmt.Fprintln(w)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// meta is the block every result file shares.
type meta struct {
	Commit     string  `json:"commit"`
	Go         string  `json:"go"`
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu"`
	Seed       int64   `json:"seed"`
	WorldSeed  int64   `json:"world_seed"`
	Scenario   string  `json:"scenario"`
	Scale      float64 `json:"scale"`
	Workload   string  `json:"workload"`
	Seconds    float64 `json:"seconds"`
	Clients    int     `json:"clients"`
	Traced     bool    `json:"traced"`
}

func (r *run) meta() meta {
	scenario := r.cfg.Scenario
	if scenario == "" {
		scenario = "baseline"
	}
	return meta{
		Commit:     commit(),
		Go:         runtime.Version(),
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Seed:       r.opt.seed,
		WorldSeed:  r.opt.worldSeed,
		Scenario:   scenario,
		Scale:      r.cfg.Scale,
		Workload:   r.workload,
		Seconds:    r.opt.seconds,
		Clients:    r.clients,
		Traced:     r.traced(),
	}
}

// commit names the measured tree; the driver's checkouts are not git
// repositories, and there the answer is "unknown".
func commit() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runOne runs a single (workload, mode) pair in this process.
func runOne(opt options, w io.Writer) (driverLine, error) {
	for _, wl := range workloads {
		if wl.name == opt.workload {
			r := newRun(opt, wl.name)
			fmt.Fprintf(w, "== %s seed=%d world-seed=%d seconds=%g trace=%d clients=%d\n",
				wl.name, opt.seed, opt.worldSeed, opt.seconds, opt.trace, r.clients)
			wl.run(r)
			return r.finish(w), nil
		}
	}
	return driverLine{}, fmt.Errorf("unknown workload %q", opt.workload)
}

// child re-runs this binary for one pair and returns its last line.
func child(opt options, workload string, trace int, seed int64, out string) (driverLine, error) {
	self, err := os.Executable()
	if err != nil {
		return driverLine{}, err
	}
	cmd := exec.Command(self,
		"-workload", workload, "-trace", fmt.Sprint(trace), "-seed", fmt.Sprint(seed),
		"-world-seed", fmt.Sprint(opt.worldSeed), "-seconds", fmt.Sprint(opt.seconds),
		"-out", out, fmt.Sprintf("-smoke=%t", opt.smoke))
	cmd.Stderr = os.Stderr
	var buf bytes.Buffer
	cmd.Stdout = io.MultiWriter(os.Stdout, &buf)
	runErr := cmd.Run()
	var last string
	sc := bufio.NewScanner(&buf)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
	}
	var line driverLine
	if err := json.Unmarshal([]byte(last), &line); err != nil {
		return line, fmt.Errorf("%s: no result line (%v)", workload, runErr)
	}
	return line, nil
}

func selected(opt options) []string {
	if opt.workload != "all" {
		return []string{opt.workload}
	}
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return names
}

// orchestrate runs every selected workload untraced then traced (or in
// the one mode asked for), each in its own process.
func orchestrate(opt options) bool {
	ok := true
	for _, name := range selected(opt) {
		for _, trace := range []int{0, 1} {
			if opt.trace >= 0 && opt.trace != trace {
				continue
			}
			line, err := child(opt, name, trace, opt.seed, opt.out)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
			ok = ok && err == nil && line.Correct
		}
	}
	return ok
}

// repeat measures run-to-run spread the way the driver does: K fresh
// untraced processes per workload, each with another seed, then the
// interquartile distance of each end-to-end metric as a share of its
// median.
func repeat(opt options) bool {
	ok := true
	for _, name := range selected(opt) {
		values := make(map[string][]float64)
		var seeds []int64
		for i := 0; i < opt.repeat; i++ {
			seed := opt.seed + int64(i)
			line, err := child(opt, name, 0, seed, "")
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
			ok = ok && err == nil && line.Correct
			seeds = append(seeds, seed)
			for _, d := range endToEnd {
				values[d.name] = append(values[d.name], line.Metrics[d.name].Value)
			}
		}
		type row struct {
			Name   string    `json:"name"`
			Unit   string    `json:"unit"`
			Median float64   `json:"median"`
			Q1     float64   `json:"q1"`
			Q3     float64   `json:"q3"`
			Spread float64   `json:"spread"`
			Values []float64 `json:"values"`
		}
		var rows []row
		fmt.Printf("== %s: spread over %d runs (seeds %d..%d)\n", name, opt.repeat, seeds[0], seeds[len(seeds)-1])
		for _, d := range endToEnd {
			q1, q2, q3 := quartiles(values[d.name])
			rows = append(rows, row{d.name, d.unit, q2, q1, q3, spread(values[d.name]), values[d.name]})
			fmt.Printf("%-14s median %12.6g  q1 %12.6g  q3 %12.6g  spread %.4f  %s\n", d.name, q2, q1, q3, spread(values[d.name]), d.unit)
		}
		if opt.out != "" {
			r := newRun(opt, name)
			summary := struct {
				Meta  meta    `json:"meta"`
				Seeds []int64 `json:"seeds"`
				Rows  []row   `json:"metrics"`
			}{r.meta(), seeds, rows}
			if err := writeJSON(filepath.Join(opt.out, "BENCH_"+name+".repeat.json"), summary); err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
			}
		}
	}
	return ok
}

func main() {
	var opt options
	flag.StringVar(&opt.workload, "workload", "all", "all, batch-paper, churn-paper, serve-point or serve-bulk")
	flag.Int64Var(&opt.seed, "seed", paperSeed, "run seed: URL sampler, sampled destinations, byte-checked responses")
	flag.Int64Var(&opt.worldSeed, "world-seed", paperSeed, "topology and churn-schedule seed; the paper's world unless a held-out one is wanted")
	flag.Float64Var(&opt.seconds, "seconds", 15, "length of each measured phase")
	flag.IntVar(&opt.trace, "trace", -1, "0 untraced (end-to-end metrics), 1 traced (per-layer metrics), -1 both in turn")
	flag.IntVar(&opt.repeat, "repeat", 0, "run each workload this many times on consecutive seeds and print the spread")
	flag.BoolVar(&opt.smoke, "smoke", false, "test-scale world and sub-second phases: a self-check, not a measurement")
	flag.StringVar(&opt.out, "out", "", "directory for BENCH_*.json and trace-*.json (empty: write no files)")
	flag.Parse()
	if opt.smoke {
		opt.seconds = 0.5
	}

	ok := true
	switch {
	case opt.repeat > 0:
		ok = repeat(opt)
	case opt.workload == "all" || opt.trace < 0:
		ok = orchestrate(opt)
	default:
		line, err := runOne(opt, os.Stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		b, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			os.Exit(2)
		}
		fmt.Println(string(b))
		ok = line.Correct
	}
	if !ok {
		os.Exit(1)
	}
}
