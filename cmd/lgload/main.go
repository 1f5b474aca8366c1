// Command lgload drives a deterministic HTTP workload against a
// running lgserve gateway and emits a machine-readable JSON summary of
// latency, throughput, status codes, cache behaviour and epoch
// progression — the serving-tier counterpart of scripts/benchjson.sh,
// whose meta object shape it reuses.
//
// The workload is deterministic: every worker walks the same fixed
// endpoint rotation (offset by worker index) and alternates
// unconditional and If-None-Match conditional requests, so two runs
// against equally-behaving gateways issue the identical request
// sequence. Each worker also checks epoch monotonicity per response
// chain: its requests are sequential, so under RCU snapshot
// publication the X-MLP-Epoch it observes can never decrease — any
// decrease is a stale read and is counted (and failed on by
// scripts/loadgate.sh).
//
// Usage:
//
//	lgload [-url http://127.0.0.1:8080] [-requests 4000] [-concurrency 16]
//	       [-min-epochs 5] [-max-duration 120s] [-ready-timeout 180s]
//	       [-out BENCH_gateway.json]
//
// lgload exits 0 whenever the run completed and the summary was
// written, even if the gateway misbehaved — grading the summary is
// loadgate.sh's job.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	"mlpeering/internal/metrics"
)

// paths is the fixed endpoint rotation every worker walks.
var paths = []string{
	"/v1/epoch",
	"/v1/mesh",
	"/v1/stats",
	"/v1/ixps",
	"/v1/link?a=20121&b=20122",
	"/v1/as/20121",
	"/v1/epoch",
	"/v1/stats",
}

type meta struct {
	GOOS    string  `json:"goos"`
	GOARCH  string  `json:"goarch"`
	CPU     *string `json:"cpu"`
	NumCPU  int     `json:"num_cpu"`
	CPUFlag *string `json:"cpu_flag"`
}

type workload struct {
	URL         string `json:"url"`
	Requests    int64  `json:"requests"`
	Concurrency int    `json:"concurrency"`
	MinEpochs   int    `json:"min_epochs"`
}

type latencySummary struct {
	MeanNS int64 `json:"mean_ns"`
	P50NS  int64 `json:"p50_ns"`
	P90NS  int64 `json:"p90_ns"`
	P99NS  int64 `json:"p99_ns"`
	MaxNS  int64 `json:"max_ns"`
}

type results struct {
	Requests     int64          `json:"requests_issued"`
	Errors       int64          `json:"errors"`
	Status       map[string]int `json:"status"`
	Server5xx    int64          `json:"server_5xx"`
	Rejected429  int64          `json:"rejected_429"`
	NotModified  int64          `json:"not_modified_304"`
	StaleReads   int64          `json:"stale_reads"`
	EpochsSeen   int            `json:"epochs_observed"`
	FirstEpoch   uint64         `json:"first_epoch"`
	LastEpoch    uint64         `json:"last_epoch"`
	MinEpochsMet bool           `json:"min_epochs_met"`
	ElapsedNS    int64          `json:"elapsed_ns"`
	SustainedQPS float64        `json:"sustained_qps"`
	Latency      latencySummary `json:"latency_ns"`
}

type report struct {
	Meta     meta     `json:"meta"`
	Workload workload `json:"workload"`
	Results  results  `json:"results"`
}

// worker issues requests from the shared counter until the run's stop
// condition is met, recording everything locally (merged at the end).
type worker struct {
	id        int
	client    *http.Client
	base      string
	latencies []int64
	statuses  map[int]int
	epochs    map[uint64]struct{}
	etags     map[string]string
	stale     int64
	notMod    int64
	errors    int64
	issued    int64
	lastEpoch uint64
}

func newWorker(id int, client *http.Client, base string) *worker {
	return &worker{
		id:       id,
		client:   client,
		base:     base,
		statuses: make(map[int]int),
		epochs:   make(map[uint64]struct{}),
		etags:    make(map[string]string),
	}
}

func (w *worker) do(seq int64) {
	path := paths[(seq+int64(w.id))%int64(len(paths))]
	req, err := http.NewRequest(http.MethodGet, w.base+path, nil)
	if err != nil {
		w.errors++
		return
	}
	// Every second request per path revalidates with the last-seen
	// ETag, exercising the 304 path deterministically.
	if etag := w.etags[path]; etag != "" && seq%2 == 1 {
		req.Header.Set("If-None-Match", etag)
	}
	start := time.Now()
	resp, err := w.client.Do(req)
	lat := time.Since(start).Nanoseconds()
	w.issued++
	if err != nil {
		w.errors++
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	w.latencies = append(w.latencies, lat)
	w.statuses[resp.StatusCode]++
	if resp.StatusCode == http.StatusNotModified {
		w.notMod++
	}
	if etag := resp.Header.Get("ETag"); etag != "" {
		w.etags[path] = etag
	}
	if eh := resp.Header.Get("X-MLP-Epoch"); eh != "" {
		if e, err := strconv.ParseUint(eh, 10, 64); err == nil {
			// This worker's requests are sequential: an epoch older
			// than one it already observed is a stale read.
			if e < w.lastEpoch {
				w.stale++
			}
			w.lastEpoch = e
			w.epochs[e] = struct{}{}
		}
	}
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("lgload: ")

	base := flag.String("url", "http://127.0.0.1:8080", "gateway base URL")
	requests := flag.Int64("requests", 4000, "minimum total requests to issue")
	concurrency := flag.Int("concurrency", 16, "concurrent workers")
	minEpochs := flag.Int("min-epochs", 5, "keep issuing requests until this many distinct epochs were observed")
	maxDuration := flag.Duration("max-duration", 120*time.Second, "hard cap on the measurement run")
	readyTimeout := flag.Duration("ready-timeout", 180*time.Second, "how long to wait for the gateway's first snapshot")
	out := flag.String("out", "", "output file (default stdout)")
	flag.Parse()

	client := &http.Client{
		Timeout: 10 * time.Second,
		Transport: &http.Transport{
			MaxIdleConns:        *concurrency * 2,
			MaxIdleConnsPerHost: *concurrency * 2,
		},
	}

	if err := waitReady(client, *base, *readyTimeout); err != nil {
		log.Fatal(err)
	}

	var (
		seq      int64
		seqMu    sync.Mutex
		seen     = make(map[uint64]struct{})
		seenMu   sync.Mutex
		workers  = make([]*worker, *concurrency)
		wg       sync.WaitGroup
		deadline = time.Now().Add(*maxDuration)
	)
	// next hands out the global request sequence and decides whether
	// the run should continue: the request budget must be spent AND
	// minEpochs distinct epochs observed (or the deadline passed).
	next := func(w *worker) (int64, bool) {
		seenMu.Lock()
		for e := range w.epochs {
			seen[e] = struct{}{}
		}
		epochsDone := len(seen) >= *minEpochs
		seenMu.Unlock()
		seqMu.Lock()
		defer seqMu.Unlock()
		if seq >= *requests && epochsDone {
			return 0, false
		}
		if time.Now().After(deadline) {
			return 0, false
		}
		seq++
		return seq - 1, true
	}

	start := time.Now()
	for i := 0; i < *concurrency; i++ {
		w := newWorker(i, client, *base)
		workers[i] = w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				s, ok := next(w)
				if !ok {
					return
				}
				w.do(s)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := merge(workers, elapsed, *minEpochs)
	rep.Meta = meta{GOOS: runtime.GOOS, GOARCH: runtime.GOARCH, NumCPU: runtime.NumCPU()}
	rep.Workload = workload{URL: *base, Requests: *requests, Concurrency: *concurrency, MinEpochs: *minEpochs}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		log.Fatal(err)
	}
	log.Printf("done: %d requests in %v (%.0f qps), %d epochs observed, %d stale reads",
		rep.Results.Requests, elapsed.Round(time.Millisecond),
		rep.Results.SustainedQPS, rep.Results.EpochsSeen, rep.Results.StaleReads)
}

// waitReady polls /v1/epoch until the gateway serves its first
// snapshot (any 200) or the timeout passes.
func waitReady(client *http.Client, base string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		resp, err := client.Get(base + "/v1/epoch")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("gateway at %s not ready after %v", base, timeout)
		}
		time.Sleep(100 * time.Millisecond)
	}
}

// merge folds the per-worker records into the report.
func merge(workers []*worker, elapsed time.Duration, minEpochs int) *report {
	res := results{Status: make(map[string]int)}
	var lats []int64
	epochs := make(map[uint64]struct{})
	for _, w := range workers {
		res.Requests += w.issued
		res.Errors += w.errors
		res.StaleReads += w.stale
		res.NotModified += w.notMod
		lats = append(lats, w.latencies...)
		for code, n := range w.statuses {
			res.Status[strconv.Itoa(code)] += n
			if code >= 500 {
				res.Server5xx += int64(n)
			}
			if code == http.StatusTooManyRequests {
				res.Rejected429 += int64(n)
			}
		}
		for e := range w.epochs {
			epochs[e] = struct{}{}
		}
	}
	res.EpochsSeen = len(epochs)
	first, last := uint64(0), uint64(0)
	for e := range epochs {
		if first == 0 || e < first {
			first = e
		}
		if e > last {
			last = e
		}
	}
	res.FirstEpoch, res.LastEpoch = first, last
	res.MinEpochsMet = len(epochs) >= minEpochs
	res.ElapsedNS = elapsed.Nanoseconds()
	if elapsed > 0 {
		res.SustainedQPS = float64(res.Requests) / elapsed.Seconds()
	}
	d := metrics.NewDistributionInt64s(lats)
	if d.Len() > 0 {
		res.Latency = latencySummary{
			MeanNS: int64(d.Mean()),
			P50NS:  int64(d.Quantile(0.50)),
			P90NS:  int64(d.Quantile(0.90)),
			P99NS:  int64(d.Quantile(0.99)),
			MaxNS:  int64(d.Max()),
		}
	}
	return &report{Results: res}
}
