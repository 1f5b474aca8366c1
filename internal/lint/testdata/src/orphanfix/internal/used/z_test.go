package used

import "orphanfix/internal/testonly"

var _ = testonly.Z
