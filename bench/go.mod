// The benchmark is a module of its own so that the root module's build
// and tier-1 tests never depend on it; its import path sits under
// mlpeering/, which is what lets it import mlpeering/internal/*.
module mlpeering/bench

go 1.24

require mlpeering v0.0.0

replace mlpeering => ../
