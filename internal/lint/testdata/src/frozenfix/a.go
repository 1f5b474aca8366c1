// Package frozenfix exercises the frozen analyzer inside one
// package: annotated type, sanctioned builder, post-publication
// writes through the value and through aliases, values born outside a
// builder, and the waiver forms.
package frozenfix

// Plan is an immutable snapshot once published.
//
//mlplint:frozen
type Plan struct {
	N     int
	Items []int
	Tags  map[string]int
}

// NewPlan is the sanctioned construction window.
//
//mlplint:frozen
func NewPlan(n int) *Plan {
	p := &Plan{N: n, Tags: make(map[string]int)}
	p.Items = append(p.Items, n)
	p.Tags["seed"] = n
	return p
}

// mutate writes after publication: every store form is flagged.
func mutate(p *Plan) {
	p.N = 1                      // want `write through frozen \*frozenfix.Plan`
	p.Items[0] = 2               // want `write through frozen \*frozenfix.Plan`
	p.Tags["x"] = 3              // want `write through frozen \*frozenfix.Plan`
	p.Items = append(p.Items, 4) // want `write through frozen \*frozenfix.Plan`
	delete(p.Tags, "x")          // want `delete through frozen \*frozenfix.Plan`
}

// aliasMutate writes through aliases; the check is type-driven, so
// renaming the pointer does not escape it.
func aliasMutate(p *Plan) {
	q := p
	q.N++      // want `write through frozen \*frozenfix.Plan`
	(*p).N = 5 // want `write through frozen \*frozenfix.Plan`
}

// valueCopy dereferences into a local copy: writes touch the copy,
// not the published value, and pass.
func valueCopy(p *Plan) int {
	v := *p
	v.N = 9
	return v.N
}

// waived carries audited exceptions in all three comment forms.
func waived(p *Plan) {
	//mlplint:frozen memo fill is idempotent and race-free
	p.N = 7
	p.Items[0] = 8 //mlplint:frozen same-line waiver form
	/*mlplint:frozen block-comment waiver form*/
	p.N = 9
}

// reasonless waivers are themselves findings.
func reasonless(p *Plan) {
	//mlplint:frozen
	p.N = 10 // want `//mlplint:frozen waiver requires a reason`
}

// smuggle makes a Plan outside a builder.
func smuggle(n int) Plan {
	return Plan{N: n} // want `new frozenfix.Plan outside a //mlplint:frozen builder`
}

// forward hands out a builder's Plan without being one, while a
// closure's result is no declaration's.
func forward(n int) *Plan {
	pool := func() any { return NewPlan(n) }
	_ = pool
	return NewPlan(n) // want `returns what builder NewPlan makes`
}

// slot writes a pointer to a Plan, not a Plan.
func slot(p *Plan) {
	var q *Plan
	r := &q
	*r = p
}
