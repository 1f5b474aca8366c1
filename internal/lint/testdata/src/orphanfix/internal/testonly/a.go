// Package testonly is imported only by another package's test, which
// is a use.
package testonly

// Z is read by a test.
const Z = 3
