// Package frozenpub exercises the frozen analyzer's published-type
// rule: the type argument of an atomic.Pointer, and every named type
// reachable from it through pointer fields and pointer elements, must
// be frozen.
package frozenpub

import (
	"sync/atomic"
	"time"
)

// Snap is published whole.
//
//mlplint:frozen
type Snap struct {
	Res   *Res
	Rows  map[string]*Row
	Cold  []*Cold
	Warm  [2]*Res
	Value Value // a value field: part of Snap itself
	At    time.Time
	Loc   *time.Location // the standard library is not judged
}

// Res is frozen and reaches Row again, which is reported once.
//
//mlplint:frozen
type Res struct{ Back *Row }

type (
	Row   struct{ N int }
	Cold  struct{ N int }
	Value struct{ P *Plain }
	Plain struct{ N int }
)

type gateway struct {
	cur   atomic.Pointer[Snap]  // want `publishes frozenpub.Row \(reached through frozenpub.Res.Back\) without //mlplint:frozen` `publishes frozenpub.Cold \(reached through frozenpub.Snap.Cold\)`
	plain atomic.Pointer[Plain] // want `atomic.Pointer publishes frozenpub.Plain without //mlplint:frozen`
	res   atomic.Pointer[Res]   // want `publishes frozenpub.Row \(reached through frozenpub.Res.Back\)`
	n     atomic.Int64
}
