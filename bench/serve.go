package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/serve"
	"mlpeering/internal/topology"
)

// The gateway's endpoints, in the order the per-endpoint metrics list
// them.
const (
	kindLink = iota
	kindAS
	kindEpoch
	kindStats
	kindMesh
	kindIXP
	kindIXPs
	numKinds
)

var kindNames = [numKinds]string{"link", "as", "epoch", "stats", "mesh", "ixp", "ixps"}

// spanNames are the request spans' names, built once: the untraced
// request path must not pay for a name it never records.
var spanNames = func() (names [numKinds]string) {
	for k, name := range kindNames {
		names[k] = "http." + name
	}
	return
}()

// rotations is each serve workload's endpoint mix: target i is of kind
// rotation[i%4].
var rotations = map[string][4]int{
	// Small answers: what shows is per-request CPU and collisions
	// with background publication.
	"serve-point": {kindLink, kindAS, kindEpoch, kindStats},
	// Large answers: bytes out and the O(IXP) render dominate;
	// /v1/mesh is pre-rendered, the pure-HTTP-write control.
	"serve-bulk": {kindMesh, kindIXP, kindIXP, kindIXPs},
}

const numTargets = 4096

// target is one URL of the workload plus what is needed to render its
// expected body directly.
type target struct {
	kind int
	path string
	slot int // index of the first target with this path: one ETag per URL
	a, b bgp.ASN
	ixp  string
}

// sampleTargets draws the URL list from the seed and the first
// snapshot: link pairs alternate present and absent, ASNs come from
// link endpoints, and IXP names come in seeded permutations of the
// whole name list — every IXP is asked for equally often under every
// seed, because their bodies span 10 KB to 1 MB and a plain uniform
// draw moved serve-bulk's median latency by a fifth between seeds.
func sampleTargets(workload string, seed int64, snap *serve.Snapshot) []target {
	rng := rand.New(rand.NewSource(seed))
	links := make([]topology.LinkKey, 0, len(snap.Result.Links))
	for k := range snap.Result.Links {
		links = append(links, k)
	}
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
	ixps := make([]string, 0, len(snap.Result.PerIXP))
	for name := range snap.Result.PerIXP {
		ixps = append(ixps, name)
	}
	sort.Strings(ixps)
	endpoint := func() bgp.ASN {
		l := links[rng.Intn(len(links))]
		if rng.Intn(2) == 0 {
			return l.A
		}
		return l.B
	}

	rotation := rotations[workload]
	var order []int // what is left of the current permutation of ixps
	targets := make([]target, numTargets)
	slots := make(map[string]int)
	for i := range targets {
		t := target{kind: rotation[i%4]}
		switch t.kind {
		case kindLink:
			if i/4%2 == 0 {
				l := links[rng.Intn(len(links))]
				t.a, t.b = l.A, l.B
			} else {
				for {
					key := topology.MakeLinkKey(endpoint(), endpoint())
					if _, present := snap.Result.Links[key]; !present && key.A != key.B {
						t.a, t.b = key.A, key.B
						break
					}
				}
			}
			t.path = fmt.Sprintf("/v1/link?a=%d&b=%d", uint32(t.a), uint32(t.b))
		case kindAS:
			t.a = endpoint()
			t.path = fmt.Sprintf("/v1/as/%d", uint32(t.a))
		case kindIXP:
			if len(order) == 0 {
				order = rng.Perm(len(ixps))
			}
			t.ixp, order = ixps[order[0]], order[1:]
			t.path = "/v1/ixp/" + t.ixp
		default:
			t.path = "/v1/" + kindNames[t.kind]
		}
		if _, ok := slots[t.path]; !ok {
			slots[t.path] = i
		}
		t.slot = slots[t.path]
		targets[i] = t
	}
	return targets
}

// render is the direct render of a target's body over snapshot s; nil
// for the endpoints serve exports no renderer for.
func (t target) render(s *serve.Snapshot) []byte {
	switch t.kind {
	case kindLink:
		return serve.RenderLink(s.Epoch, s.Result, t.a, t.b)
	case kindAS:
		return serve.RenderAS(s.Epoch, s.Result, t.a)
	case kindMesh:
		return serve.RenderMesh(s.Epoch, s.Fingerprint, s.Result)
	case kindIXP:
		b, _ := serve.RenderIXP(s.Epoch, s.Result, t.ixp)
		return b
	case kindIXPs:
		return serve.RenderIXPList(s.Epoch, s.Result)
	}
	return nil
}

// epochWatch is a client's stale-read detector. A client's requests
// are sequential, so under atomic snapshot publication the epochs it
// reads never decrease: one lower than any it already saw is stale.
type epochWatch struct{ highest uint64 }

func (w *epochWatch) observe(epoch uint64) (stale, changed bool) {
	if epoch < w.highest {
		return true, true
	}
	changed = epoch != w.highest
	w.highest = epoch
	return false, changed
}

// reqSample is one completed request of a measured phase.
type reqSample struct {
	kind         int
	ixp          string // which IXP, for kindIXP: their bodies differ a hundredfold
	notModified  bool
	epochChanged bool
	ms           float64
}

// phaseRec is what one client saw during one phase.
type phaseRec struct {
	samples           []reqSample
	attempted, failed int
	failures          []string
	bytes             int64
	stale, s429, s5xx int
	committed         map[uint64]time.Time // epoch → commit instant, as seen after each response
}

func (p *phaseRec) fail(format string, args ...any) {
	p.failed++
	if len(p.failures) < 3 {
		p.failures = append(p.failures, fmt.Sprintf(format, args...))
	}
}

// client is one closed-loop caller: it sends its next request only
// after the previous one completed.
type client struct {
	g       *serve.Gateway
	hc      *http.Client
	base    string
	targets []target
	tr      *tracer
	rng     *rand.Rand
	// revalidate makes every second request conditional on the last
	// ETag seen for its URL (serve-point; serve-bulk never revalidates).
	revalidate bool

	next  int      // request counter, offset so clients start apart
	etags []string // last ETag seen, per target slot
	watch epochWatch
	body  bytes.Buffer
}

// do issues one request and books it in rec.
func (c *client) do(rec *phaseRec) {
	i := c.next % len(c.targets)
	lap := c.next / len(c.targets)
	t := c.targets[i]
	// Every second request of a revalidating client is conditional;
	// the lap term keeps a URL from being conditional on every visit.
	conditional := c.revalidate && (c.next+lap)%2 == 1 && c.etags[t.slot] != ""
	op := c.next
	c.next++
	rec.attempted++

	req, err := http.NewRequest(http.MethodGet, c.base+t.path, nil)
	if err != nil {
		rec.fail("%s: %v", t.path, err)
		return
	}
	if conditional {
		req.Header.Set("If-None-Match", c.etags[t.slot])
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		rec.fail("%s: %v", t.path, err)
		return
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	end := time.Now()
	if err != nil {
		rec.fail("%s: reading body: %v", t.path, err)
		return
	}
	c.tr.add(spanNames[t.kind], -1, op, start, end)

	switch {
	case resp.StatusCode == http.StatusOK, resp.StatusCode == http.StatusNotModified && conditional:
	case resp.StatusCode == http.StatusTooManyRequests:
		rec.s429++
		rec.fail("%s: 429", t.path)
		return
	case resp.StatusCode >= 500:
		rec.s5xx++
		rec.fail("%s: %d", t.path, resp.StatusCode)
		return
	default:
		rec.fail("%s: unexpected status %d", t.path, resp.StatusCode)
		return
	}

	epoch, err := strconv.ParseUint(resp.Header.Get("X-MLP-Epoch"), 10, 64)
	if err != nil {
		rec.fail("%s: X-MLP-Epoch: %v", t.path, err)
		return
	}
	stale, changed := c.watch.observe(epoch)
	if etag := resp.Header.Get("ETag"); etag != "" {
		c.etags[t.slot] = etag
	}
	cur := c.g.Current()
	if _, seen := rec.committed[cur.Epoch]; !seen {
		rec.committed[cur.Epoch] = cur.Committed
	}
	rec.bytes += int64(c.body.Len())
	rec.samples = append(rec.samples, reqSample{
		kind:         t.kind,
		ixp:          t.ixp,
		notModified:  resp.StatusCode == http.StatusNotModified,
		epochChanged: changed,
		ms:           float64(end.Sub(start)) / 1e6,
	})
	if stale {
		rec.stale++
		rec.fail("%s: stale read: epoch %d after %d", t.path, epoch, c.watch.highest)
		return
	}

	// One 200 in 64 is compared byte for byte with a direct render,
	// when the gateway still holds the epoch the response came from.
	if resp.StatusCode == http.StatusOK && c.rng.Intn(64) == 0 && cur.Epoch == epoch {
		if want := t.render(cur); want != nil {
			if !bytes.Equal(c.body.Bytes(), want) {
				rec.fail("%s: body differs from the direct render at epoch %d", t.path, epoch)
			}
		} else {
			var got struct{ Epoch uint64 }
			if err := json.Unmarshal(c.body.Bytes(), &got); err != nil || got.Epoch != epoch {
				rec.fail("%s: body epoch %d (%v), header epoch %d", t.path, got.Epoch, err, epoch)
			}
		}
	}
}

// phase runs every client until the deadline and returns their merged
// record and the phase's wall time.
func runPhase(clients []*client, length time.Duration) (phaseRec, time.Duration) {
	recs := make([]phaseRec, len(clients))
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(length)
	for i, c := range clients {
		recs[i].committed = make(map[uint64]time.Time)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				c.do(&recs[i])
			}
		}()
	}
	wg.Wait()
	wall := time.Since(t0)

	all := phaseRec{committed: make(map[uint64]time.Time)}
	for _, rec := range recs {
		all.merge(rec)
	}
	return all, wall
}

// merge folds another record into p.
func (p *phaseRec) merge(rec phaseRec) {
	p.samples = append(p.samples, rec.samples...)
	p.attempted += rec.attempted
	p.failed += rec.failed
	p.failures = append(p.failures, rec.failures...)
	p.bytes += rec.bytes
	p.stale += rec.stale
	p.s429 += rec.s429
	p.s5xx += rec.s5xx
	for e, at := range rec.committed {
		p.committed[e] = at
	}
}

// latencies selects sample latencies.
func (p *phaseRec) latencies(keep func(reqSample) bool) []float64 {
	var out []float64
	for _, s := range p.samples {
		if keep == nil || keep(s) {
			out = append(out, s.ms)
		}
	}
	return out
}

// typical is the headline timing tracing overhead is measured on: the
// median latency of each endpoint (each IXP on its own), weighted by
// its share of the requests. The pooled median of a mix sits on the
// edge between two endpoints, and the mean follows the replay-wrap
// stall a slice may or may not contain; per-endpoint medians do neither.
func (p *phaseRec) typical() float64 {
	if len(p.samples) == 0 {
		return 0
	}
	strata := make(map[string][]float64)
	for _, s := range p.samples {
		key := kindNames[s.kind] + s.ixp
		strata[key] = append(strata[key], s.ms)
	}
	keys := make([]string, 0, len(strata))
	for key := range strata {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	sum := 0.0
	for _, key := range keys {
		sum += median(strata[key]) * float64(len(strata[key]))
	}
	return sum / float64(len(p.samples))
}

// epochGaps are the gaps, in milliseconds, between the commit instants
// of consecutive epochs the clients saw.
func (p *phaseRec) epochGaps() []float64 {
	epochs := make([]uint64, 0, len(p.committed))
	for e := range p.committed {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	var gaps []float64
	for i := 1; i < len(epochs); i++ {
		if epochs[i] == epochs[i-1]+1 {
			gaps = append(gaps, float64(p.committed[epochs[i]].Sub(p.committed[epochs[i-1]]))/1e6)
		}
	}
	return gaps
}

func runServe(r *run) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		r.op(fmt.Errorf("%s: %w", r.workload, err))
		return
	}

	// Set-up is the cold start: gateway construction to the first 200.
	t0 := time.Now()
	g := serve.New(serve.Config{
		Topology:      r.cfg,
		Churn:         r.churn,
		MaxInFlight:   256,
		EpochInterval: 200 * time.Millisecond,
	})
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run(ctx) }()
	srv := &http.Server{Handler: g.Handler()}
	served := make(chan struct{})
	go func() {
		defer close(served)
		_ = srv.Serve(ln) // returns ErrServerClosed at Shutdown
	}()
	transport := &http.Transport{MaxIdleConns: 128, MaxIdleConnsPerHost: 128, DisableCompression: true}
	hc := &http.Client{Transport: transport, Timeout: 30 * time.Second}
	base := "http://" + ln.Addr().String()
	defer func() {
		cancel()
		<-runErr
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		_ = srv.Shutdown(sctx) // nothing is in flight; a timeout only means a slow close
		<-served
		transport.CloseIdleConnections()
	}()

	select {
	case <-g.Ready():
	case err := <-runErr:
		runErr <- err
		r.op(fmt.Errorf("%s: gateway stopped before its first commit: %v", r.workload, err))
		return
	}
	resp, err := hc.Get(base + "/v1/epoch")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("first request: status %d", resp.StatusCode)
		}
	}
	if err != nil {
		r.op(fmt.Errorf("%s: %w", r.workload, err))
		return
	}
	setup := time.Since(t0)

	targets := sampleTargets(r.workload, r.opt.seed, g.Current())
	clients := make([]*client, r.clients)
	var tracers []*tracer
	for i := range clients {
		clients[i] = &client{
			g: g, hc: hc, base: base, targets: targets,
			rng:        rand.New(rand.NewSource(r.opt.seed + int64(i) + 1)),
			revalidate: r.workload == "serve-point",
			next:       i * len(targets) / len(clients),
			etags:      make([]string, len(targets)),
		}
	}
	setTracing := func(on bool) {
		for _, c := range clients {
			c.tr = nil
			if on {
				c.tr = newTracer(r.start)
				tracers = append(tracers, c.tr)
			}
		}
	}

	warmup := 3 * time.Second
	if r.opt.smoke {
		warmup = r.budget()
	}
	runPhase(clients, warmup)

	book := func(rec phaseRec) {
		r.attempted += rec.attempted
		r.failed += rec.failed
		for _, f := range rec.failures {
			if len(r.failures) < 10 {
				r.failures = append(r.failures, r.workload+": "+f)
			}
		}
	}

	if !r.traced() {
		rec, wall := runPhase(clients, r.budget())
		book(rec)
		heap := liveHeapMB()
		runtime.KeepAlive(g)

		all := rec.latencies(nil)
		gaps := rec.epochGaps()
		qps := float64(rec.attempted-rec.failed) / wall.Seconds()
		r.e2e("setup_s", setup.Seconds(), "s", 0)
		r.e2e("http_qps", qps, "1/s", rec.attempted)
		r.e2e("http_p50_ms", median(all), "ms", len(all))
		r.e2eTail("http_p90_ms", all, 0.9, "ms")
		r.e2eTail("http_p99_ms", all, 0.99, "ms")
		r.e2e("http_mb_per_s", float64(rec.bytes)/1e6/wall.Seconds(), "MB/s", 0)
		r.e2e("epoch_gap_ms_p50", median(gaps), "ms", len(gaps))
		r.e2e("live_heap_mb", heap, "MB", 0)
		r.headline["setup_s"] = setup.Seconds()
		r.headline["ops_per_s"] = qps
		r.headline["op_ms_tail"] = quantile(all, 0.99)
		r.headline["live_heap_mb"] = heap
		return
	}

	// Traced: untraced reference slices alternate with traced slices,
	// one span per request, all of one length, so that a drift in the
	// box's speed lands on both sides of the overhead ratio (slices of
	// unequal length do not compare: the shorter read 2-9 % slower with
	// no tracing anywhere). The diagnostics follow, between phases.
	ref := phaseRec{committed: make(map[uint64]time.Time)}
	rec := phaseRec{committed: make(map[uint64]time.Time)}
	var wall time.Duration
	before := sampleProcess()
	for round := 0; round < 2; round++ {
		setTracing(false)
		slice, _ := runPhase(clients, r.budget()/3)
		ref.merge(slice)
		setTracing(true)
		slice, took := runPhase(clients, r.budget()/3)
		rec.merge(slice)
		wall += took
	}
	setTracing(false)
	r.processLayers(before)
	book(ref)
	book(rec)

	all := rec.latencies(nil)
	for kind, name := range kindNames {
		lat := rec.latencies(func(s reqSample) bool { return s.kind == kind })
		if len(lat) > 0 {
			r.layer("serve."+name+"_p50_ms", median(lat), len(lat))
			r.layer("serve."+name+"_p99_ms", quantile(lat, 0.99), len(lat))
		}
	}
	notMod := rec.latencies(func(s reqSample) bool { return s.notModified })
	fresh := rec.latencies(func(s reqSample) bool { return !s.notModified })
	changed := rec.latencies(func(s reqSample) bool { return s.epochChanged })
	same := rec.latencies(func(s reqSample) bool { return !s.epochChanged })
	gaps := rec.epochGaps()
	if len(notMod) > 0 {
		r.layer("serve.304_p50_ms", median(notMod), len(notMod))
	}
	r.layer("serve.200_p50_ms", median(fresh), len(fresh))
	if len(all) > 0 {
		r.layer("serve.not_modified_frac", float64(len(notMod))/float64(len(all)), len(all))
	}
	r.layer("serve.p99_epoch_change_ms", quantile(changed, 0.99), len(changed))
	r.layer("serve.p99_same_epoch_ms", quantile(same, 0.99), len(same))
	r.layer("serve.stale_reads", float64(rec.stale), 0)
	r.layer("serve.status_429", float64(rec.s429), 0)
	r.layer("serve.status_5xx", float64(rec.s5xx), 0)
	r.layer("serve.epochs_seen", float64(len(rec.committed)), 0)
	r.layer("serve.epoch_gap_max_ms", quantile(gaps, 1), len(gaps)) // the replay-wrap stall
	r.layer("serve.epoch_gap_ms_p50", median(gaps), len(gaps))
	r.layer("serve.http_p50_ms", median(all), len(all))
	r.layer("serve.http_p90_ms", quantile(all, 0.9), len(all))
	r.layer("serve.http_mb_per_s", float64(rec.bytes)/1e6/wall.Seconds(), 0)
	if base := ref.typical(); base > 0 {
		r.layer("trace.overhead_frac", (rec.typical()-base)/base, len(all))
	}

	direct := r.directRenders(g.Current(), targets)
	// What HTTP adds on top of the dominant render of each workload.
	heavy := kindAS
	if r.workload == "serve-bulk" {
		heavy = kindIXP
	}
	if lat := rec.latencies(func(s reqSample) bool { return s.kind == heavy && !s.notModified }); len(lat) > 0 {
		r.layer("serve.http_overhead_ms", median(lat)-direct[heavy], len(lat))
	}

	if r.workload == "serve-point" {
		r.openLoop(hc, base, targets)
	}
	r.spans = mergeSpans(append([]*tracer{r.tr}, tracers...)...)
}

// directRenders times this workload's endpoints rendered straight from
// a snapshot, 200 calls each, and returns the median per kind. It runs
// between measured phases; the gateway keeps publishing underneath.
func (r *run) directRenders(snap *serve.Snapshot, targets []target) map[int]float64 {
	renders := 200
	if r.opt.smoke {
		renders = 5
	}
	direct := make(map[int]float64)
	for _, kind := range []int{kindMesh, kindAS, kindLink, kindIXP, kindIXPs} {
		var sample []target
		for _, t := range targets {
			if t.kind == kind {
				sample = append(sample, t)
			}
		}
		if len(sample) == 0 {
			continue
		}
		id := r.tr.begin("serve.render_"+kindNames[kind], -1, 0)
		ms := make([]float64, renders)
		for i := range ms {
			t1 := time.Now()
			sample[i%len(sample)].render(snap)
			ms[i] = float64(time.Since(t1)) / 1e6
		}
		r.tr.end(id)
		direct[kind] = median(ms)
		if kind == kindLink {
			r.layer("serve.render_link_us", median(ms)*1e3, renders)
		} else {
			r.layer("serve.render_"+kindNames[kind]+"_ms", median(ms), renders)
		}
	}
	return direct
}

// openLoop is the diagnostic arrival-schedule phase: requests are due
// at a fixed rate whatever the gateway does, latency counts from the
// due instant, and a failure, a refusal or a reply later than the
// limit is a miss. Its p99 moved too much between identical runs to
// be an end-to-end metric, so it reports per-layer numbers only and
// books no ops.
func (r *run) openLoop(hc *http.Client, base string, targets []target) {
	const (
		rate    = 300.0 // requests per second
		limit   = 100 * time.Millisecond
		workers = 64
	)
	length := min(10*time.Second, r.budget()*2/3)
	n := int(rate * length.Seconds())
	type job struct {
		i   int
		due time.Time
	}
	jobs := make(chan job, n) // sized to the number of sends: the schedule never blocks on a slow reply
	latency := make([]float64, n)
	missed := make([]bool, n)
	late := make([]float64, n)

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var body bytes.Buffer
			for j := range jobs {
				resp, err := hc.Get(base + targets[j.i%len(targets)].path)
				ok := err == nil
				if ok {
					body.Reset()
					_, err = body.ReadFrom(resp.Body)
					resp.Body.Close()
					ok = err == nil && resp.StatusCode == http.StatusOK
				}
				took := time.Since(j.due)
				latency[j.i] = float64(took) / 1e6
				missed[j.i] = !ok || took > limit
			}
		}()
	}
	id := r.tr.begin("serve.open_loop", -1, 0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(float64(i) / rate * float64(time.Second)))
		time.Sleep(time.Until(due))
		late[i] = float64(time.Since(due)) / 1e6
		jobs <- job{i, due}
	}
	close(jobs)
	wg.Wait()
	r.tr.end(id)

	misses := 0
	for _, m := range missed {
		if m {
			misses++
		}
	}
	r.layer("serve.open_p50_ms", median(latency), n)
	r.layer("serve.open_p99_ms", quantile(latency, 0.99), n)
	r.layer("serve.open_late_p99_ms", quantile(late, 0.99), n)
	if n > 0 {
		r.layer("serve.open_miss_frac", float64(misses)/float64(n), n)
	}
}
