// Package peeringdb models the PeeringDB-style registry the paper joins
// against: self-reported peering policies, geographic scope, IXP
// participation and looking-glass endpoints (§5.2, §5.5, Fig. 13).
//
// The registry is deliberately self-reported: the topology generator may
// write records that disagree with an AS's actual behaviour, reproducing
// the paper's observation that "a network's observable MLP behavior is
// not always consistent with its reported peering policy".
package peeringdb

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync"

	"mlpeering/internal/bgp"
)

// Policy is a self-reported peering policy.
type Policy int

// Peering policies, in decreasing openness. PolicyUnknown means the AS
// has no PeeringDB record (the paper could collect policy data for only
// 904 of 1,667 IXP members).
const (
	PolicyUnknown Policy = iota
	PolicyOpen
	PolicySelective
	PolicyRestrictive
)

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case PolicyOpen:
		return "open"
	case PolicySelective:
		return "selective"
	case PolicyRestrictive:
		return "restrictive"
	default:
		return "unknown"
	}
}

// Scope is a self-reported geographic scope (Fig. 13's x axis).
type Scope int

// Scopes.
const (
	ScopeUnknown Scope = iota // "N/A" in the paper
	ScopeGlobal
	ScopeEurope
	ScopeRegional
)

// String implements fmt.Stringer.
func (s Scope) String() string {
	switch s {
	case ScopeGlobal:
		return "global"
	case ScopeEurope:
		return "europe"
	case ScopeRegional:
		return "regional"
	default:
		return "n/a"
	}
}

// Record is one network's registry entry.
type Record struct {
	ASN    bgp.ASN  `json:"asn"`
	Name   string   `json:"name"`
	Policy Policy   `json:"policy"`
	Scope  Scope    `json:"scope"`
	IXPs   []string `json:"ixps"`    // IXP names the network reports presence at
	LGURLs []string `json:"lg_urls"` // public looking glasses operated by the network
}

// Registry is an in-memory PeeringDB.
type Registry struct {
	mu sync.RWMutex
	//mlplint:guardedby mu
	records map[bgp.ASN]*Record
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{records: make(map[bgp.ASN]*Record)}
}

// Put inserts or replaces a record.
func (r *Registry) Put(rec *Record) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cp := *rec
	r.records[rec.ASN] = &cp
}

// Get returns the record for asn, or nil if the network never
// registered (the majority case in the paper's dataset).
func (r *Registry) Get(asn bgp.ASN) *Record {
	r.mu.RLock()
	defer r.mu.RUnlock()
	rec, ok := r.records[asn]
	if !ok {
		return nil
	}
	cp := *rec
	return &cp
}

// Policy returns the self-reported policy, PolicyUnknown when absent.
func (r *Registry) Policy(asn bgp.ASN) Policy {
	if rec := r.Get(asn); rec != nil {
		return rec.Policy
	}
	return PolicyUnknown
}

// Scope returns the self-reported scope, ScopeUnknown when absent.
func (r *Registry) Scope(asn bgp.ASN) Scope {
	if rec := r.Get(asn); rec != nil {
		return rec.Scope
	}
	return ScopeUnknown
}

// Len returns the number of records.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.records)
}

// registryJSON is the serialized form.
type registryJSON struct {
	Records []*Record `json:"records"`
}

// WriteTo serializes the registry as JSON.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.RLock()
	recs := make([]*Record, 0, len(r.records))
	for _, rec := range r.records {
		recs = append(recs, rec)
	}
	r.mu.RUnlock()
	sort.Slice(recs, func(i, j int) bool { return recs[i].ASN < recs[j].ASN })
	data, err := json.MarshalIndent(registryJSON{Records: recs}, "", "  ")
	if err != nil {
		return 0, err
	}
	n, err := w.Write(append(data, '\n'))
	return int64(n), err
}

// ReadFrom loads records from JSON produced by WriteTo, merging into r.
// Input it rejects, a null record among them, merges nothing.
func (r *Registry) ReadFrom(rd io.Reader) (int64, error) {
	data, err := io.ReadAll(rd)
	if err != nil {
		return int64(len(data)), err
	}
	var parsed registryJSON
	if err := json.Unmarshal(data, &parsed); err != nil {
		return int64(len(data)), fmt.Errorf("peeringdb: %w", err)
	}
	if i := slices.Index(parsed.Records, nil); i >= 0 {
		return int64(len(data)), fmt.Errorf("peeringdb: record %d is null", i)
	}
	for _, rec := range parsed.Records {
		r.Put(rec)
	}
	return int64(len(data)), nil
}

// SaveFile writes the registry to path.
func (r *Registry) SaveFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := r.WriteTo(f); err != nil {
		return err
	}
	return f.Close()
}
