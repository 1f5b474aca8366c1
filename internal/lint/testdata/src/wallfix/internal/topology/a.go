// Package topology is the world side: it may import inference
// packages.
package topology

import "wallfix/internal/bgp"

// Truth is the ground truth.
var Truth = int(bgp.ASN(7))
