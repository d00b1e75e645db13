// Package a exercises the maporder analyzer: collect-then-sort of the
// keys, sorted through package sort or slices, is the one sanctioned
// map range, every other map range is flagged — order-insensitive
// bodies included — and //lint:allow suppresses with a reason.
package a

import (
	"slices"
	"sort"

	"maporder.example/lookalike"
)

type sink struct{ seen []string }

func (s *sink) add(k string) { s.seen = append(s.seen, k) }

// flagUnsortedCollect appends map keys to a slice that is never
// sorted: the result order follows the runtime's randomized map order.
func flagUnsortedCollect(m map[string]int) []string {
	var out []string
	for k := range m { // want "out is never sorted after the loop"
		out = append(out, k)
	}
	return out
}

// okCollectThenSort is the sanctioned idiom.
func okCollectThenSort(m map[string]int) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// okSlicesSortFunc is the same idiom sorted through package slices.
func okSlicesSortFunc(m map[int]bool) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b int) int { return b - a })
	return keys
}

// flagMapWrite builds another map. Insertion order never matters, but
// the rule sanctions one shape only.
func flagMapWrite(m map[int]bool) map[int]bool {
	inv := make(map[int]bool, len(m))
	for k, v := range m { // want "body is not keys = append(keys, k)"
		inv[k] = !v
	}
	return inv
}

// flagIntCounter accumulates an integer, which commutes bitwise, yet
// is not collect-then-sort.
func flagIntCounter(m map[string]int, floor int) int {
	n := 0
	for _, v := range m { // want "body is not keys = append(keys, k)"
		if v > floor {
			n++
		}
	}
	return n
}

// flagFloatAccum sums floats: float addition is not bitwise
// associative, so the total depends on iteration order.
func flagFloatAccum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m { // want "body is not keys = append(keys, k)"
		sum += v
	}
	return sum
}

// flagEarlyReturn picks "any" key — which key wins is random.
func flagEarlyReturn(m map[string]int) string {
	for k := range m { // want "body is not keys = append(keys, k)"
		return k
	}
	return ""
}

// flagMethodCall feeds keys to a stateful consumer in map order.
func flagMethodCall(m map[string]int, s *sink) {
	for k := range m { // want "body is not keys = append(keys, k)"
		s.add(k)
	}
}

// flagDelete prunes entries; deletion commutes, but ranging over the
// sorted keys says so without a proof.
func flagDelete(m map[string]int, drop map[string]bool) {
	for k := range drop { // want "body is not keys = append(keys, k)"
		if drop[k] {
			delete(m, k)
		}
	}
}

type schedule struct{ contacts []int }

func (s *schedule) Sort() { sort.Ints(s.contacts) }

// flagFieldCollectThenMethodSort appends into a field the holder sorts
// after the loop: the collect target must be a variable, and the sort
// a sort or slices call on it.
func flagFieldCollectThenMethodSort(m map[int]int, s *schedule, span float64) {
	for k, v := range m { // want "body is not keys = append(keys, k)"
		if float64(v) > span {
			s.contacts = append(s.contacts, k)
		}
	}
	s.Sort()
}

// flagFieldCollectUnsorted is the same collect without the sort.
func flagFieldCollectUnsorted(m map[int]int, s *schedule) {
	for k := range m { // want "body is not keys = append(keys, k)"
		s.contacts = append(s.contacts, k)
	}
}

// flagAppendToOther appends onto a different slice than it assigns,
// so each iteration discards the last: keys ends up holding one
// arbitrary key.
func flagAppendToOther(m map[string]int, other []string) []string {
	var keys []string
	for k := range m { // want "body is not keys = append(keys, k)"
		keys = append(other, k)
	}
	sort.Strings(keys)
	return keys
}

// flagCollectValues collects values, not keys: sorted values lose the
// key they belonged to, so the idiom is keys only.
func flagCollectValues(m map[string]int) []int {
	var vals []int
	for _, v := range m { // want "body is not keys = append(keys, k)"
		vals = append(vals, v)
	}
	sort.Ints(vals)
	return vals
}

// flagCollectInIf filters while collecting: the body must be the bare
// append.
func flagCollectInIf(m map[string]bool) []string {
	var keys []string
	for k, ok := range m { // want "body is not keys = append(keys, k)"
		if ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

// flagOuterKey ranges into a key declared outside the loop, which
// still holds an arbitrary key once the loop ends.
func flagOuterKey(m map[string]int) (string, []string) {
	var k string
	var keys []string
	for k = range m { // want "body is not keys = append(keys, k)"
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return k, keys
}

// flagSortBeforeLoop sorts the slice before collecting into it.
func flagSortBeforeLoop(m map[string]int) []string {
	var keys []string
	sort.Strings(keys)
	for k := range m { // want "keys is never sorted after the loop"
		keys = append(keys, k)
	}
	return keys
}

// flagSortsOther sorts a different slice than the one it collects.
func flagSortsOther(m map[string]int, other []string) []string {
	var keys []string
	for k := range m { // want "keys is never sorted after the loop"
		keys = append(keys, k)
	}
	sort.Strings(other)
	return keys
}

// flagLookalikeSort passes the keys to a function named like a sort
// outside package sort and slices.
func flagLookalikeSort(m map[string]int) []string {
	var keys []string
	for k := range m { // want "keys is never sorted after the loop"
		keys = append(keys, k)
	}
	lookalike.Strings(keys)
	return keys
}

// flagAppendMore appends more than the key: the body must be the
// append of k alone.
func flagAppendMore(m map[string]int) []string {
	var keys []string
	for k := range m { // want "body is not keys = append(keys, k)"
		keys = append(keys, k, k)
	}
	sort.Strings(keys)
	return keys
}

// flagCollectAndCount collects the keys and does one more thing per
// key: the body must be the append alone.
func flagCollectAndCount(m map[string]int) ([]string, int) {
	var keys []string
	n := 0
	for k := range m { // want "body is not keys = append(keys, k)"
		keys = append(keys, k)
		n += m[k]
	}
	sort.Strings(keys)
	return keys, n
}

// flagTupleAssign collects the keys and, in the same statement, keeps
// whichever key came last.
func flagTupleAssign(m map[string]int) ([]string, string) {
	var keys []string
	var last string
	for k := range m { // want "body is not keys = append(keys, k)"
		keys, last = append(keys, k), k
	}
	sort.Strings(keys)
	return keys, last
}

// flagAppendSpread appends the bytes of each key, not the key.
func flagAppendSpread(m map[string]int) []byte {
	var keys []byte
	for k := range m { // want "body is not keys = append(keys, k)"
		keys = append(keys, k...)
	}
	slices.Sort(keys)
	return keys
}

var pushed int

// push appends k and counts calls, a side effect in map order.
func push(keys []string, k string) []string {
	pushed++
	return append(keys, k)
}

// flagHelperAppend collects through a function that is not the append
// builtin.
func flagHelperAppend(m map[string]int) []string {
	var keys []string
	for k := range m { // want "body is not keys = append(keys, k)"
		keys = push(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// suppressedCase carries a counted, reasoned escape hatch.
func suppressedCase(m map[string]int) []string {
	var out []string
	//lint:allow maporder fixture output order is irrelevant here
	for k := range m { // want-suppressed "never sorted"
		out = append(out, k)
	}
	return out
}
