// Command lgserve serves the inference over HTTP: the epoch-pinned
// gateway. A background reconciler churns a generated world, replays it
// through the incremental windowed inference, and publishes each
// committed window as an immutable epoch snapshot that the query
// endpoints serve with real cache semantics (ETag / If-None-Match /
// Last-Modified / bounded in-flight backpressure).
//
// Usage:
//
//	lgserve [-scale 0.2] [-scenario baseline] [-addr 127.0.0.1:8080]
//	        [-churn-epochs 12] [-churn-interval 1m] [-epoch-interval 200ms]
//	        [-max-inflight 256] [-max-age 0] [-drain 10s]
//
// Query examples:
//
//	curl -i 'http://127.0.0.1:8080/v1/epoch'
//	curl -i 'http://127.0.0.1:8080/v1/mesh'
//	curl -i 'http://127.0.0.1:8080/v1/link?a=20121&b=20122'
//	curl -i -H 'If-None-Match: "e3-..."' 'http://127.0.0.1:8080/v1/stats'
//
// SIGINT/SIGTERM shut the server down gracefully:
// in-flight requests get up to -drain to finish before the listener
// closes. A setting that means nothing (a negative -max-inflight,
// -epoch-interval, -max-age or -drain, a sub-second -max-age, an unknown
// -scenario, a -scale or -churn-interval that is not positive, zero
// -churn-epochs) exits non-zero before the listener opens; a world that
// cannot be built (baseline -scale >= 4 overflows the 16-bit alias
// table) exits non-zero once the build fails, instead of answering 503.
package main

import (
	"context"
	"flag"
	"log"
	"net"
	"net/http"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"mlpeering/internal/churn"
	"mlpeering/internal/serve"
	"mlpeering/internal/topology"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lgserve: ")

	scale := flag.Float64("scale", 0.2, "world scale")
	scenario := flag.String("scenario", "baseline", "world scenario (one of: "+
		strings.Join(topology.ScenarioNames(), ", ")+")")
	seed := flag.Int64("seed", 20130501, "generation seed")
	addr := flag.String("addr", "127.0.0.1:8080", "listen address")
	churnEpochs := flag.Int("churn-epochs", 12, "churn epochs per replay cycle")
	churnInterval := flag.Duration("churn-interval", time.Minute, "simulated trace time per epoch")
	epochInterval := flag.Duration("epoch-interval", 200*time.Millisecond, "minimum wall-clock pacing between snapshot commits")
	maxInFlight := flag.Int("max-inflight", 256, "in-flight request cap before 429 (0 = unbounded)")
	maxAge := flag.Duration("max-age", 0, "Cache-Control max-age (0 = no-cache, always revalidate)")
	drain := flag.Duration("drain", 10*time.Second, "graceful shutdown drain timeout")
	flag.Parse()
	if *drain < 0 {
		log.Fatalf("-drain %v is negative (0 closes in-flight requests at once)", *drain)
	}

	cfg := topology.DefaultConfig()
	cfg.Scale = *scale
	cfg.Seed = *seed
	cfg.Scenario = *scenario

	ccfg := churn.DefaultConfig(*seed)
	ccfg.Epochs = *churnEpochs
	ccfg.Interval = *churnInterval

	gcfg := serve.Config{
		Topology:      cfg,
		Churn:         ccfg,
		MaxInFlight:   *maxInFlight,
		MaxAge:        *maxAge,
		EpochInterval: *epochInterval,
		Logf:          log.Printf,
	}
	if err := gcfg.Check(); err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatal(err)
	}

	g := serve.New(gcfg)
	runErr := make(chan error, 1)
	go func() { runErr <- g.Run(ctx) }()

	log.Printf("gateway on http://%s (endpoints: /v1/epoch /v1/stats /v1/mesh /v1/ixps /v1/ixp/<name> /v1/link?a=&b= /v1/as/<asn> /healthz)", ln.Addr())
	srv := &http.Server{Handler: g.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- srv.Serve(ln) }()

	select {
	case err := <-serveErr:
		log.Fatal(err)
	case err := <-runErr:
		if err != nil {
			log.Fatal(err)
		}
	case <-ctx.Done():
	}

	log.Printf("shutting down (drain %v)", *drain)
	if err := serve.WaitShutdown(ctx, srv, *drain); err != nil {
		log.Fatalf("shutdown: %v", err)
	}
	log.Printf("bye")
}
