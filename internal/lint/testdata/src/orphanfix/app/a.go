// Package app is outside internal/, so nothing need import it.
package app

import "orphanfix/internal/used"

// W reads used.
const W = used.Y
