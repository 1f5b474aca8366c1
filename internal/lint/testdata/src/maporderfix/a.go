// Package maporderfix exercises the maporder analyzer.
package maporderfix

import (
	"fmt"
	"sort"
)

// badAppend builds an ordered slice in map-iteration order.
func badAppend(m map[string]int) []string {
	var out []string
	for k := range m {
		out = append(out, k) // want `append to "out" inside range over map`
	}
	return out
}

// goodSortedKeys is the sanctioned sorted-key-extraction idiom.
func goodSortedKeys(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// goodMapToMap writes into another map: commutative across keys.
func goodMapToMap(m map[string]int) map[string]int {
	out := make(map[string]int, len(m))
	for k, v := range m {
		out[k] = v
	}
	return out
}

// goodPerKey appends into per-key cells selected by the iteration
// key: commutative across iterations.
func goodPerKey(m map[string][]int, acc map[string][]int) {
	for k, vs := range m {
		acc[k] = append(acc[k], vs...)
	}
}

// badPerValue appends into cells selected by the iteration value:
// keys sharing a value append to one cell in iteration order.
func badPerValue(m map[string]string, acc map[string][]string) {
	for k, v := range m {
		acc[v] = append(acc[v], k) // want `append to "acc" inside range over map`
	}
}

// cells holds per-key lists filled in map-iteration order.
type cells struct{ byValue, other map[string][]string }

// goodPerCellSort appends into cells selected by the iteration value,
// then sorts every cell of that same map after the loop: each cell ends
// sorted whatever the iteration order.
func goodPerCellSort(m map[string]string, c *cells) {
	for k, v := range m {
		c.byValue[v] = append(c.byValue[v], k)
	}
	for _, ks := range c.byValue {
		sort.Strings(ks)
	}
}

// badPerCellSortElsewhere sorts the cells of a different map after the
// loop, which leaves the appended cells in iteration order.
func badPerCellSortElsewhere(m map[string]string, c *cells) {
	for k, v := range m {
		c.byValue[v] = append(c.byValue[v], k) // want `append to "c" inside range over map`
	}
	for _, ks := range c.other {
		sort.Strings(ks)
	}
}

// badPrint emits output in map-iteration order.
func badPrint(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v) // want `fmt.Println inside range over map`
	}
}

// badSend commits to a channel in map-iteration order.
func badSend(m map[string]int, ch chan string) {
	for k := range m {
		ch <- k // want `channel send inside range over map`
	}
}

// waivedLoop carries a loop-level waiver with a reason.
func waivedLoop(m map[string]int) []string {
	var out []string
	//mlplint:ordered consumer sorts downstream; collection order is irrelevant
	for k := range m {
		out = append(out, k)
	}
	return out
}

// waivedStmt carries a statement-level waiver with a reason.
func waivedStmt(m map[string]int, ch chan string) {
	for k := range m {
		//mlplint:ordered fixture: send order deliberately unchecked
		ch <- k
	}
}

// reasonless shows that a bare waiver suppresses the finding but is
// itself reported.
func reasonless(m map[string]int) []string {
	var out []string
	//mlplint:ordered
	for k := range m { // want `waiver requires a reason`
		out = append(out, k)
	}
	return out
}
