package core

// PassiveDiffFromReference lets the external scenario test (which needs
// pipeline-built worlds, and pipeline imports core) compare RunPassive
// with the per-row reference.
var PassiveDiffFromReference = passiveDiffFromReference
