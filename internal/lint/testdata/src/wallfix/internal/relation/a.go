// Package relation imports a world package directly.
package relation

import "wallfix/internal/topology" // want `inference package relation reaches world package topology: relation -> topology`

// N reads the ground truth.
var N = topology.Truth
