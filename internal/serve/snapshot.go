// Package serve is the epoch-pinned inference gateway: it runs the
// churn engine and the incremental windowed inference continuously in
// a background reconciler, publishes every committed window as an
// immutable epoch-numbered Snapshot behind one atomic pointer (RCU —
// a reader pins a snapshot with a single atomic load and never takes
// a lock), and serves mesh/link/relationship/window-stats queries
// over HTTP with real cache semantics: strong ETags keyed on the
// window fingerprint, Cache-Control, If-None-Match conditional
// requests answered 304, Last-Modified from the commit instant,
// bounded in-flight backpressure (429 + Retry-After) and graceful
// drain on shutdown.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/core"
)

// WindowStats is the committed window's counter block, republished per
// epoch on /v1/stats.
type WindowStats struct {
	Announced     int     `json:"announced"`
	Withdrawn     int     `json:"withdrawn"`
	WithdrawnOnly int     `json:"withdrawn_only_updates"`
	LiveRoutes    int     `json:"live_routes"`
	RelLinks      int     `json:"rel_links"`
	P2PRels       int     `json:"p2p_rels"`
	MeshLinks     int     `json:"mesh_links"`
	MultiIXPLinks int     `json:"multi_ixp_links"`
	Stability     float64 `json:"stability"`
	CloseTimeNS   int64   `json:"close_time_ns"`
}

// Snapshot is one committed inference window, pinned to an epoch
// number. It is published by a single atomic pointer swap and read
// concurrently without synchronization, so it must never be mutated
// after NewSnapshot returns — the frozen analyzer machine-checks
// that, like core.Result underneath it.
//
//mlplint:frozen
type Snapshot struct {
	// Epoch numbers commits monotonically across the gateway's
	// lifetime (it never resets when the replay cycles).
	Epoch uint64
	// Fingerprint is the canonical mesh hash (core.Result.Fingerprint)
	// the ETag is keyed on.
	Fingerprint uint64
	// ETag is the strong entity tag served with every response:
	// `"e<epoch>-<fingerprint-hex>"`. The epoch component keeps tags
	// distinct across epochs even when churn left the mesh unchanged,
	// so conditional revalidation can never resurrect a stale stats
	// body.
	ETag string
	// WindowStart / WindowEnd bound the inference window in simulated
	// trace time.
	WindowStart, WindowEnd time.Time
	// Committed is the wall-clock publish instant (Last-Modified).
	Committed time.Time
	// Scenario names the generating world scenario.
	Scenario string
	// Stats carries the window's counters.
	Stats WindowStats
	// Result is the materialized inference the query endpoints read.
	Result *core.Result

	// index is Result's link index: the sorted link array every body
	// is encoded from, the per-AS and per-IXP adjacency rows the point
	// queries read, and the encoded link array of /v1/mesh.
	index *core.LinkIndex

	// Precomputed at publish so the read path only writes cached bytes:
	// the whole-snapshot bodies (meshHead is completed by index.Encoded
	// and a closing brace) and the per-epoch header values.
	epochJSON, statsJSON, ixpsJSON, meshHead []byte
	hdrETag, hdrEpoch, hdrLastModified       []string
}

// NewSnapshot derives the immutable epoch snapshot of one committed
// window. pw.Result must be materialized (pw.Materialize, which
// ChurnTrace.ReplayWindows calls before handing the window over);
// committed is the wall-clock commit instant the caller observed.
//
// This is the prefill window: every memo the read path relies on — the
// Result's link index, the index's encoded link array, every per-IXP
// CoveredMembers list — is filled here, before publication, so serving
// never writes. A memo that is already there is left alone, which is
// how a Result (or an IXPInference) shared with the previous epoch
// publishes without being sorted or encoded again.
//
//mlplint:frozen
func NewSnapshot(epoch uint64, scenario string, pw *core.PassiveWindow, committed time.Time) *Snapshot {
	res := pw.Result
	idx := res.BuildIndex(appendLink)
	for _, name := range idx.IXPs {
		res.PerIXP[name].CoveredMembers()
	}
	s := &Snapshot{
		Epoch:       epoch,
		Fingerprint: idx.Fingerprint,
		WindowStart: pw.Start,
		WindowEnd:   pw.End,
		Committed:   committed,
		Scenario:    scenario,
		Result:      res,
		Stats: WindowStats{
			Announced:     pw.Announced,
			Withdrawn:     pw.Withdrawn,
			WithdrawnOnly: pw.WithdrawnOnlyUpdates,
			LiveRoutes:    pw.LiveRoutes,
			RelLinks:      pw.RelLinks,
			P2PRels:       pw.P2PRels,
			MeshLinks:     res.TotalLinks(),
			MultiIXPLinks: res.MultiIXPLinks(),
			Stability:     pw.Stability,
			CloseTimeNS:   pw.CloseTime.Nanoseconds(),
		},
		index:           idx,
		hdrEpoch:        []string{strconv.FormatUint(epoch, 10)},
		hdrLastModified: []string{committed.UTC().Format(http.TimeFormat)},
	}
	s.ETag = fmt.Sprintf("%q", fmt.Sprintf("e%d-%016x", epoch, s.Fingerprint))
	s.hdrETag = []string{s.ETag}
	s.epochJSON = renderEpochMeta(s)
	s.statsJSON = renderStats(s)
	s.meshHead = appendMeshHead(nil, epoch, s.Fingerprint)
	s.ixpsJSON = appendIXPList(nil, epoch, res, idx)
	return s
}

// epochDTO is the /v1/epoch payload.
type epochDTO struct {
	Epoch       uint64    `json:"epoch"`
	Fingerprint string    `json:"fingerprint"`
	Scenario    string    `json:"scenario"`
	WindowStart time.Time `json:"window_start"`
	WindowEnd   time.Time `json:"window_end"`
	Committed   time.Time `json:"committed"`
	Links       int       `json:"links"`
}

// statsDTO is the /v1/stats payload.
type statsDTO struct {
	Epoch       uint64      `json:"epoch"`
	Fingerprint string      `json:"fingerprint"`
	Stats       WindowStats `json:"stats"`
}

// mustJSON marshals one of the two constant-size per-epoch bodies
// (epoch, stats), whose time and float spellings are encoding/json's to
// define; everything mesh-shaped goes through the append encoder. The
// DTOs contain no unmarshalable types, so a failure is a programming
// error.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("serve: render marshal: %v", err))
	}
	return b
}

// FingerprintHex is the canonical hex spelling of a mesh fingerprint
// used in payloads and ETags.
func FingerprintHex(fp uint64) string { return fmt.Sprintf("%016x", fp) }

// The exported renders below are pure functions of (epoch, result,
// query) producing exactly the bytes the gateway serves for them — the
// conformance tests and the benchmark's byte check call them. They go
// through the Result's link index, building it if the Result has never
// been published (core.Result.BuildIndex: a first call on a Result
// other goroutines already read is the caller's race to avoid).

// RenderMesh renders the full inferred mesh: every link ascending with
// its sorted IXP attribution. It encodes the link array afresh, so a
// byte check against /v1/mesh also checks the snapshot's cached copy.
func RenderMesh(epoch uint64, fingerprint uint64, r *core.Result) []byte {
	links := r.BuildIndex(nil).Links
	b := appendMeshHead(make([]byte, 0, 64+48*len(links)), epoch, fingerprint)
	return append(appendLinkArray(b, links), '}')
}

// RenderIXPList renders the per-IXP coverage summary, sorted by name.
func RenderIXPList(epoch uint64, r *core.Result) []byte {
	return appendIXPList(nil, epoch, r, r.BuildIndex(nil))
}

// RenderIXP renders one IXP's inference; ok is false when the
// dictionary has no such IXP.
func RenderIXP(epoch uint64, r *core.Result, name string) ([]byte, bool) {
	idx := r.BuildIndex(nil)
	rows, ok := idx.IXPLinks(name)
	if !ok {
		return nil, false
	}
	inf := r.PerIXP[name]
	return appendIXP(make([]byte, 0, ixpBodySize(name, inf, rows)), epoch, idx, name, inf, rows), true
}

// RenderLink renders one link lookup (the relationship query): whether
// the pair peers multilaterally and at which IXPs.
func RenderLink(epoch uint64, r *core.Result, a, b bgp.ASN) []byte {
	return appendLinkLookup(nil, epoch, r, a, b)
}

// RenderAS renders every inferred link one AS participates in (the
// route/neighbor view of the mesh), ascending by peer.
func RenderAS(epoch uint64, r *core.Result, asn bgp.ASN) []byte {
	idx := r.BuildIndex(nil)
	rows := idx.ASLinks(asn)
	return appendAS(make([]byte, 0, asBodySize(rows)), epoch, idx, asn, rows)
}

func renderEpochMeta(s *Snapshot) []byte {
	return mustJSON(epochDTO{
		Epoch:       s.Epoch,
		Fingerprint: FingerprintHex(s.Fingerprint),
		Scenario:    s.Scenario,
		WindowStart: s.WindowStart,
		WindowEnd:   s.WindowEnd,
		Committed:   s.Committed,
		Links:       s.Result.TotalLinks(),
	})
}

func renderStats(s *Snapshot) []byte {
	return mustJSON(statsDTO{Epoch: s.Epoch, Fingerprint: FingerprintHex(s.Fingerprint), Stats: s.Stats})
}
