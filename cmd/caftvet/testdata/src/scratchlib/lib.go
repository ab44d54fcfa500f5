// Package scratchlib is the annotated library half of the caftvet
// end-to-end fixtures: the misuse lives in the importing package, so
// catching it proves cross-package annotation visibility, also when
// the importer is vetted without this package in the pattern.
package scratchlib

// Buf owns a reusable scratch slice.
type Buf struct {
	scratch []int
}

// Items returns the live item set.
//
//caft:scratch safe=ItemsCopy
func (b *Buf) Items() []int {
	if b.scratch == nil {
		b.scratch = make([]int, 0, 8)
	}
	return b.scratch
}

// ItemsCopy returns a freshly allocated copy of Items, safe to retain.
func (b *Buf) ItemsCopy() []int {
	return append([]int(nil), b.Items()...)
}

// Core is a per-request engine: single-goroutine by contract. The
// misuse fixtures share it across goroutines from another package,
// which only gets caught if the confinement annotation crosses packages.
//
//caft:confined
type Core struct {
	n int
}

// Step advances the core.
func (c *Core) Step() { c.n++ }

// Sum is allocation-free; annotated callers in other packages may
// call it only because this annotation travels with the package.
//
//caft:zeroalloc
func Sum(xs []int) int {
	n := 0
	for _, x := range xs {
		n += x
	}
	return n
}

// Grow allocates and says nothing about it.
func Grow(xs []int) []int {
	return append(append([]int(nil), xs...), 0)
}
