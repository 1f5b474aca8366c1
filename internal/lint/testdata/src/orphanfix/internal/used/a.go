// Package used has an importer.
package used

// Y is read by app.
const Y = 2
