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
// would sit at 503 forever. So is a serving setting that means nothing
// (see Config), before anything is built.
func (g *Gateway) Run(ctx context.Context) error {
	if err := g.cfg.check(); err != nil {
		return err
	}
	ct, err := experiments.BuildChurnTrace(g.cfg.Topology, g.cfg.Churn)
	if err != nil {
		return fmt.Errorf("serve: build churn trace: %w", err)
	}
	return g.replay(ctx, ct)
}

// Check refuses, before anything is built, what check or
// experiments.CheckChurnTrace refuses: lgserve runs it before listening.
func (c Config) Check() error {
	if err := c.check(); err != nil {
		return err
	}
	return experiments.CheckChurnTrace(c.Topology, c.Churn)
}

// check refuses the serving settings that mean nothing, naming the
// value and what to use instead.
func (c Config) check() error {
	switch {
	case c.MaxInFlight < 0:
		return fmt.Errorf("serve: in-flight cap %d is negative (0 disables the cap)", c.MaxInFlight)
	case c.EpochInterval < 0:
		return fmt.Errorf("serve: epoch interval %v is negative (0 publishes as fast as windows close)", c.EpochInterval)
	case c.MaxAge < 0:
		return fmt.Errorf("serve: max-age %v is negative (0 serves no-cache)", c.MaxAge)
	case c.MaxAge > 0 && c.MaxAge < time.Second:
		return fmt.Errorf("serve: max-age %v is under the one second Cache-Control counts in (0 serves no-cache; otherwise use at least 1s)", c.MaxAge)
	}
	return nil
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

	// Each window is published as soon as it is handed over; the pacing
	// wait comes after, before the callback returns, so the replay
	// closes and indexes the next window only once the wait is over and
	// no second full index is live through it.
	var epoch uint64
	commit := func(pw *core.PassiveWindow) {
		epoch++
		if pw.Rewound > 0 {
			logf("serve: replay wrapped at epoch %d: %d live slots rewound", epoch, pw.Rewound)
		}
		// The commit instant is served as Last-Modified; it must be
		// real wall-clock time, not simulated trace time.
		now := time.Now() //mlplint:clock Last-Modified needs the wall-clock commit instant
		g.publish(newSnapshot(g.boot, epoch, scenario, pw, now))
		logf("serve: epoch %d committed: window=[%s, %s) links=%d fp=%s",
			epoch, pw.Start.Format(time.RFC3339), pw.End.Format(time.RFC3339),
			pw.Result.TotalLinks(), FingerprintHex(g.cur.Load().Fingerprint))
		if wait := g.cfg.EpochInterval - time.Since(now); wait > 0 {
			select {
			case <-ctx.Done():
			case <-time.After(wait):
			}
		}
	}

	if err := ct.ReplayWindows(ctx, 0, 0, commit); ctx.Err() == nil {
		return err
	}
	return nil
}
