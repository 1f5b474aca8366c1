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
// when the trace's horizon is exhausted the replay wraps (see
// ChurnTrace.ReplayWindows for what a client sees there) — and returns
// nil when ctx is cancelled. A world that cannot be built is returned
// as an error at once: the build is a pure function of the
// configuration (16-bit alias exhaustion at baseline Scale >= 4, say),
// so the same error would come back on every retry and the gateway
// would sit at 503 forever.
func (g *Gateway) Run(ctx context.Context) error {
	ct, err := experiments.BuildChurnTrace(g.cfg.Topology, g.cfg.Churn)
	if err != nil {
		return fmt.Errorf("serve: build churn trace: %w", err)
	}
	return g.replay(ctx, ct)
}

// replay serves ct until ctx is done. It keeps nothing of ct but the
// scenario name, so once the first window has loaded the base dumps,
// they and the trace's ground truth are garbage: the replay itself
// holds only the updates and the dictionary.
func (g *Gateway) replay(ctx context.Context, ct *experiments.ChurnTrace) error {
	logf := g.cfg.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	scenario := ct.Scenario
	logf("serve: world ready: scenario=%s epochs=%d interval=%v", scenario, ct.Epochs, ct.Interval)

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
		if pw.Rewound > 0 {
			logf("serve: replay wrapped at epoch %d: %d live slots rewound", epoch, pw.Rewound)
		}
		// The commit instant is served as Last-Modified; it must be
		// real wall-clock time, not simulated trace time.
		now := time.Now() //mlplint:clock Last-Modified needs the wall-clock commit instant
		g.publish(newSnapshot(g.boot, epoch, scenario, pw, now))
		lastCommit = now
		logf("serve: epoch %d committed: window=[%s, %s) links=%d fp=%s",
			epoch, pw.Start.Format(time.RFC3339), pw.End.Format(time.RFC3339),
			pw.Result.TotalLinks(), FingerprintHex(g.cur.Load().Fingerprint))
	}

	if err := ct.ReplayWindows(ctx, 0, 0, commit); ctx.Err() == nil {
		return err
	}
	return nil
}
