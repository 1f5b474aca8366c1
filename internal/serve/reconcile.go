package serve

import (
	"context"
	"fmt"
	"time"

	"mlpeering/internal/core"
	"mlpeering/internal/experiments"
)

// Run is the gateway's reconciler: it builds the churn trace once,
// then replays it through the incremental windowed inference in a
// loop, publishing every committed window as the next epoch snapshot.
// Like an always-converging reconciler it never stops on its own —
// when the trace's horizon is exhausted it replays again, epochs
// numbering monotonically across cycles — and returns nil when ctx is
// cancelled. A world that cannot be built is returned as an error at
// once: the build is a pure function of the configuration (16-bit
// alias exhaustion at baseline Scale >= 4, say), so the same error
// would come back on every retry and the gateway would sit at 503
// forever.
func (g *Gateway) Run(ctx context.Context) error {
	logf := g.cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	ct, err := experiments.BuildChurnTrace(g.cfg.Topology, g.cfg.Churn)
	if err != nil {
		return fmt.Errorf("serve: build churn trace: %w", err)
	}
	logf("serve: world ready: scenario=%s epochs=%d interval=%v", ct.Scenario, ct.Epochs, ct.Interval)

	var epoch uint64
	var lastCommit time.Time
	commit := func(pw *core.PassiveWindow) {
		if g.cfg.EpochInterval > 0 && !lastCommit.IsZero() {
			if wait := g.cfg.EpochInterval - time.Since(lastCommit); wait > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(wait):
				}
			}
		}
		epoch++
		// The commit instant is served as Last-Modified; it must be
		// real wall-clock time, not simulated trace time.
		now := time.Now() //mlplint:clock Last-Modified needs the wall-clock commit instant
		g.publish(NewSnapshot(epoch, ct.Scenario, pw, now))
		lastCommit = now
		logf("serve: epoch %d committed: window=[%s, %s) links=%d fp=%s",
			epoch, pw.Start.Format(time.RFC3339), pw.End.Format(time.RFC3339),
			pw.Result.TotalLinks(), FingerprintHex(g.cur.Load().Fingerprint))
	}

	for {
		if err := ct.ReplayWindows(ctx, 0, g.cfg.Workers, commit); err != nil {
			if ctx.Err() != nil {
				return nil
			}
			return err
		}
		if ctx.Err() != nil {
			return nil
		}
		logf("serve: replay cycle complete at epoch %d; restarting", epoch)
	}
}
