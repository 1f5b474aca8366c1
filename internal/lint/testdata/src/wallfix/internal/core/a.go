// Package core is an inference package whose imports reach a world
// package through another inference package.
package core

import (
	"wallfix/internal/bgp"
	"wallfix/internal/relation" // want `inference package core reaches world package topology: core -> relation -> topology`
)

var _ = bgp.ASN(relation.N)
