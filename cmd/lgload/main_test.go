package main

import (
	"maps"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// reply is one scripted gateway response.
type reply struct {
	status int
	epoch  uint64
}

// scripted starts a server that answers each chain — the first path
// segment, which a worker's base URL ends in — from its own queue of
// replies, in order, whatever endpoint is asked for.
func scripted(t *testing.T, chains map[string][]reply) *httptest.Server {
	t.Helper()
	var mu sync.Mutex
	next := make(map[string]int)
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		chain, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, "/"), "/")
		mu.Lock()
		i := next[chain]
		next[chain]++
		mu.Unlock()
		if i >= len(chains[chain]) {
			t.Errorf("chain %q: request %d past the end of its script", chain, i)
			rw.WriteHeader(http.StatusTeapot)
			return
		}
		rep := chains[chain][i]
		rw.Header().Set("X-MLP-Epoch", strconv.FormatUint(rep.epoch, 10))
		rw.Header().Set("ETag", `"e`+strconv.FormatUint(rep.epoch, 10)+`"`)
		rw.WriteHeader(rep.status)
	}))
	t.Cleanup(srv.Close)
	return srv
}

// chainWorker is a worker whose requests all land on one chain of srv.
func chainWorker(id int, srv *httptest.Server, chain string) *worker {
	return newWorker(id, srv.Client(), srv.URL+"/"+chain)
}

// okReplies scripts one 200 per epoch.
func okReplies(epochs ...uint64) []reply {
	out := make([]reply, len(epochs))
	for i, e := range epochs {
		out[i] = reply{http.StatusOK, e}
	}
	return out
}

// TestStaleReadIsARegressionInsideOneChain: one worker's requests are
// sequential, so an epoch below the one it saw last is a stale read,
// counted once; climbing back up afterwards is not another.
func TestStaleReadIsARegressionInsideOneChain(t *testing.T) {
	srv := scripted(t, map[string][]reply{"a": okReplies(3, 4, 2, 5, 5)})
	w := chainWorker(0, srv, "a")
	for seq := int64(0); seq < 5; seq++ {
		w.do(seq)
	}
	res := merge([]*worker{w}, time.Second, 4).Results
	if res.StaleReads != 1 {
		t.Fatalf("stale reads = %d, want exactly 1 (the 4 -> 2 step)", res.StaleReads)
	}
	if res.Requests != 5 || res.Errors != 0 || res.EpochsSeen != 4 || res.FirstEpoch != 2 || res.LastEpoch != 5 {
		t.Fatalf("merged %+v, want 5 requests, 0 errors, epochs 2..5 (4 distinct)", res)
	}
}

// TestInterleavedMonotoneChainsCountNoStaleRead: the detector is sound —
// responses that regress in arrival order across workers are not stale
// as long as each worker's own chain never goes backwards.
func TestInterleavedMonotoneChainsCountNoStaleRead(t *testing.T) {
	srv := scripted(t, map[string][]reply{"a": okReplies(5, 6, 7), "b": okReplies(1, 2, 2)})
	a, b := chainWorker(0, srv, "a"), chainWorker(1, srv, "b")
	for seq := int64(0); seq < 6; seq += 2 {
		a.do(seq) // arrival order 5, 1, 6, 2, 7, 2
		b.do(seq + 1)
	}
	res := merge([]*worker{a, b}, time.Second, 5).Results
	if res.StaleReads != 0 {
		t.Fatalf("stale reads = %d across two monotone chains, want 0", res.StaleReads)
	}
	if res.EpochsSeen != 5 || !res.MinEpochsMet {
		t.Fatalf("epochs observed = %d (met %v), want the union of both chains: 5", res.EpochsSeen, res.MinEpochsMet)
	}
}

// TestStatusTallies: 304, 429 and 5xx each land in their own counter and
// in the per-code map, and a rejected or failed response is a latency
// sample like any other, not a transport error.
func TestStatusTallies(t *testing.T) {
	srv := scripted(t, map[string][]reply{"a": {
		{http.StatusOK, 1}, {http.StatusNotModified, 1}, {http.StatusTooManyRequests, 1},
		{http.StatusServiceUnavailable, 1}, {http.StatusInternalServerError, 2}, {http.StatusNotModified, 2},
	}})
	w := chainWorker(0, srv, "a")
	for seq := int64(0); seq < 6; seq++ {
		w.do(seq)
	}
	res := merge([]*worker{w}, 2*time.Second, 2).Results
	if res.NotModified != 2 || res.Rejected429 != 1 || res.Server5xx != 2 || res.Errors != 0 {
		t.Fatalf("304/429/5xx/errors = %d/%d/%d/%d, want 2/1/2/0", res.NotModified, res.Rejected429, res.Server5xx, res.Errors)
	}
	want := map[string]int{"200": 1, "304": 2, "429": 1, "500": 1, "503": 1}
	if !maps.Equal(res.Status, want) {
		t.Fatalf("status map %v, want %v", res.Status, want)
	}
	if res.Requests != 6 || res.SustainedQPS != 3 || len(w.latencies) != 6 {
		t.Fatalf("requests %d, qps %v, %d latency samples; want 6, 3, 6", res.Requests, res.SustainedQPS, len(w.latencies))
	}
}

// TestMinEpochsMet: the flag loadgate.sh fails on is false whenever
// fewer distinct epochs were observed than asked for.
func TestMinEpochsMet(t *testing.T) {
	srv := scripted(t, map[string][]reply{"a": okReplies(7, 7, 8, 9, 9)})
	w := chainWorker(0, srv, "a")
	for seq := int64(0); seq < 5; seq++ {
		w.do(seq)
	}
	if res := merge([]*worker{w}, time.Second, 4).Results; res.MinEpochsMet || res.EpochsSeen != 3 {
		t.Fatalf("3 distinct epochs, 4 asked for: met %v, observed %d", res.MinEpochsMet, res.EpochsSeen)
	}
	if res := merge([]*worker{w}, time.Second, 3).Results; !res.MinEpochsMet {
		t.Fatal("3 distinct epochs, 3 asked for: not met")
	}
}
