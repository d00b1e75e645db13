// Package lookalike exports a sort-shaped name that does not sort: the
// sorting call must come from package sort or slices.
package lookalike

// Strings leaves s in the order it came.
func Strings(s []string) {}
