// Package bgp is an inference package that reaches nothing of the
// world.
package bgp

import "fmt"

// ASN is an AS number.
type ASN uint32

func (a ASN) String() string { return fmt.Sprint(uint32(a)) }
