// Package memofix exercises the frozen analyzer's memo rule: memo
// fields written, address-taken and set by composite literals inside
// and outside the functions their annotations name.
package memofix

// Result carries a memo its builder fills.
type Result struct {
	Links []int
	// index is filled by build only.
	//
	//mlplint:memo build, rebuild
	index *Index
	//mlplint:memo build
	cache []byte
}

// Index is what the memo holds.
type Index struct{ N int }

func build(links []int) *Result {
	r := &Result{Links: links, index: &Index{N: len(links)}}
	r.cache = append(r.cache, 1)
	r.cache[0] = 2
	return r
}

func rebuild(r *Result) {
	r.index = &Index{N: len(r.Links)}
}

func bypassAssign(r *Result, idx *Index) {
	r.index = idx  // want `memo field Result.index: write in bypassAssign; //mlplint:memo allows only build, rebuild`
	r.cache[0] = 3 // want `memo field Result.cache: write in bypassAssign`
}

func bypassAddr(r *Result, idx *Index) {
	p := &r.index // want `memo field Result.index: address-take in bypassAddr`
	*p = idx
}

func bypassLiteral(r *Result, idx *Index) *Result {
	return &Result{Links: r.Links, index: idx} // want `memo field Result.index: composite-literal set in bypassLiteral`
}

func bypassPositional(idx *Index) Result {
	return Result{nil, idx, nil} // want `memo field Result.index: composite-literal set` `memo field Result.cache: composite-literal set`
}

// reads pass, and so do writes through the memo's pointee.
func reads(r *Result) int {
	n := r.index.N
	r.Links = nil
	return n + len(r.cache)
}
