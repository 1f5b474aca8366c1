// Package frozentypes declares annotated snapshot types for the
// cross-package frozen fixture.
package frozentypes

// Snap is frozen by its type annotation.
//
//mlplint:frozen
type Snap struct{ N int }

// View is frozen too; NewView is its builder.
//
//mlplint:frozen
type View struct{ M map[string]int }

// NewView publishes a View.
//
//mlplint:frozen
func NewView() *View { return &View{M: make(map[string]int)} }
