package collector

import (
	"io"
	"time"

	"mlpeering/internal/bgp"
)

// WriteEpochAll is WriteEpoch without the visible-set filter: it walks
// every destination of dirty, as the stream did before the filter
// existed. The oracle the filtered stream is pinned byte-identical to.
func (s *UpdateStream) WriteEpochAll(w io.Writer, ts time.Time, window time.Duration, dirty []bgp.ASN) (announced, withdrawn int, err error) {
	return s.writeEpoch(w, ts, window, dirty)
}
