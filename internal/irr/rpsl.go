// Package irr models the Internet Routing Registry: RPSL object parsing
// and serialization, aut-num import/export policies and as-set
// expansion. The inference pipeline uses it for connectivity discovery
// (AS-SETs, and LINX-style searches for members peering with a route
// server ASN) and for the reciprocity validation of §4.4.
package irr

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
	"unicode"

	"mlpeering/internal/bgp"
)

// Object is one RPSL object: an ordered list of attribute/value pairs.
// The first attribute names the object class ("aut-num", "as-set", ...).
type Object struct {
	Attrs []Attr
}

// Attr is one RPSL attribute.
type Attr struct {
	Name  string
	Value string
}

// Class returns the object class (name of the first attribute).
func (o *Object) Class() string {
	if len(o.Attrs) == 0 {
		return ""
	}
	return o.Attrs[0].Name
}

// Key returns the object's primary key (value of the first attribute).
func (o *Object) Key() string {
	if len(o.Attrs) == 0 {
		return ""
	}
	return strings.ToUpper(o.Attrs[0].Value)
}

// All returns every value of the named attribute, in order.
func (o *Object) All(name string) []string {
	var out []string
	for _, a := range o.Attrs {
		if a.Name == name {
			out = append(out, a.Value)
		}
	}
	return out
}

// Parse reads RPSL objects from r. Objects are separated by blank
// lines; lines starting with '%' or '#' are comments; lines starting
// with whitespace (any Unicode space, so that no attribute name can
// hide a leading '%', '#' or '+' behind one) or '+' continue the
// previous attribute.
func Parse(r io.Reader) ([]*Object, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	var objs []*Object
	var cur *Object
	flush := func() {
		if cur != nil && len(cur.Attrs) > 0 {
			objs = append(objs, cur)
		}
		cur = nil
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		switch {
		case strings.TrimSpace(line) == "":
			flush()
		case strings.HasPrefix(line, "%") || strings.HasPrefix(line, "#"):
			continue
		case line[0] == '+' || strings.IndexFunc(line, unicode.IsSpace) == 0:
			if cur == nil || len(cur.Attrs) == 0 {
				return nil, fmt.Errorf("irr: line %d: continuation without attribute", lineNo)
			}
			// Joined with one space, and trimmed so that neither an
			// empty value nor an empty continuation leaves it at an end.
			v := &cur.Attrs[len(cur.Attrs)-1].Value
			*v = strings.TrimSpace(*v + " " + strings.TrimPrefix(line, "+"))
		default:
			i := strings.IndexByte(line, ':')
			if i < 0 {
				return nil, fmt.Errorf("irr: line %d: malformed attribute %q", lineNo, line)
			}
			if cur == nil {
				cur = &Object{}
			}
			cur.Attrs = append(cur.Attrs, Attr{
				Name:  strings.ToLower(strings.TrimSpace(line[:i])),
				Value: strings.TrimSpace(line[i+1:]),
			})
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return objs, nil
}

// WriteObjects serializes objects in RPSL form.
func WriteObjects(w io.Writer, objs []*Object) error {
	for i, o := range objs {
		if i > 0 {
			if _, err := io.WriteString(w, "\n"); err != nil {
				return err
			}
		}
		for _, a := range o.Attrs {
			if _, err := fmt.Fprintf(w, "%-16s%s\n", a.Name+":", a.Value); err != nil {
				return err
			}
		}
	}
	return nil
}

// Registry stores parsed RPSL objects with class/key indexing.
type Registry struct {
	objects []*Object
	byKey   map[string]*Object // "class key" -> object
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: make(map[string]*Object)}
}

// Add inserts an object, replacing any previous object with the same
// class and key.
func (r *Registry) Add(o *Object) {
	k := o.Class() + " " + o.Key()
	if _, exists := r.byKey[k]; !exists {
		r.objects = append(r.objects, o)
	} else {
		for i, old := range r.objects {
			if old.Class() == o.Class() && old.Key() == o.Key() {
				r.objects[i] = o
				break
			}
		}
	}
	r.byKey[k] = o
}

// Lookup finds an object by class and key.
func (r *Registry) Lookup(class, key string) (*Object, bool) {
	o, ok := r.byKey[strings.ToLower(class)+" "+strings.ToUpper(key)]
	return o, ok
}

// AutNum returns the aut-num object for asn.
func (r *Registry) AutNum(asn bgp.ASN) (*Object, bool) {
	return r.Lookup("aut-num", "AS"+asn.String())
}

// Objects returns all objects in insertion order.
func (r *Registry) Objects() []*Object { return r.objects }

// Len returns the object count.
func (r *Registry) Len() int { return len(r.objects) }

// ASSetName returns the canonical as-set name for an IXP's route server
// members.
func ASSetName(ixpName string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z':
			return r - 32
		case r >= 'A' && r <= 'Z', r >= '0' && r <= '9':
			return r
		default:
			return '-'
		}
	}, ixpName)
	return "AS-" + clean + "-RSMEMBERS"
}

// ExpandASSet resolves an as-set name to its member ASNs, following
// nested sets with cycle protection. Unknown nested sets are skipped
// (IRR data is famously incomplete); unknown tokens cause an error.
func (r *Registry) ExpandASSet(name string) ([]bgp.ASN, error) {
	seen := make(map[string]bool)
	asns := make(map[bgp.ASN]bool)
	var walk func(string) error
	walk = func(setName string) error {
		key := strings.ToUpper(setName)
		if seen[key] {
			return nil
		}
		seen[key] = true
		obj, ok := r.Lookup("as-set", key)
		if !ok {
			return nil
		}
		for _, memberLine := range obj.All("members") {
			for _, tok := range strings.FieldsFunc(memberLine, func(c rune) bool {
				return c == ',' || c == ' ' || c == '\t'
			}) {
				if tok == "" {
					continue
				}
				up := strings.ToUpper(tok)
				if strings.HasPrefix(up, "AS-") || strings.Contains(up, ":AS-") {
					if err := walk(up); err != nil {
						return err
					}
					continue
				}
				asn, err := bgp.ParseASN(tok)
				if err != nil {
					return fmt.Errorf("irr: as-set %s: bad member %q", setName, tok)
				}
				asns[asn] = true
			}
		}
		return nil
	}
	if err := walk(name); err != nil {
		return nil, err
	}
	out := make([]bgp.ASN, 0, len(asns))
	for a := range asns {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// SearchAutNumsMentioning returns the ASNs of aut-num objects whose
// import/export lines reference the given ASN: the technique the paper
// used to find LINX route server members (Table 2's asterisk).
func (r *Registry) SearchAutNumsMentioning(asn bgp.ASN) []bgp.ASN {
	needle := "AS" + asn.String()
	var out []bgp.ASN
	for _, o := range r.objects {
		if o.Class() != "aut-num" {
			continue
		}
		hit := false
		for _, a := range o.Attrs {
			if a.Name != "import" && a.Name != "export" {
				continue
			}
			for _, tok := range strings.Fields(a.Value) {
				if strings.ToUpper(strings.Trim(tok, ",{}")) == needle {
					hit = true
					break
				}
			}
			if hit {
				break
			}
		}
		if hit {
			self, err := bgp.ParseASN(strings.TrimPrefix(o.Key(), "AS"))
			if err == nil {
				out = append(out, self)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
