package experiments

// CheckGolden lets the external replay golden, which reads the gateway
// (and serve imports experiments), compare with and rewrite the files
// under testdata like the package's own goldens.
var CheckGolden = checkGolden
