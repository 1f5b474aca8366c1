package lonely // want `package orphanfix/internal/lonely is imported by no other package of the module`

// X is never read.
const X = 1
