// Package a exercises every zeroalloc rule in one package.
package a

import (
	"errors"
	"math"
	"sort"
)

var errBad = errors.New("bad")

// Durer abstracts a cost model.
type Durer interface {
	Dur() float64
}

// Ring owns pre-sized scratch.
type Ring struct {
	buf   []int
	mat   [][]int
	times []float64
	d     Durer
	fn    func() int
}

// Reset is the steady-state hot path: every append is rooted in
// receiver scratch.
//
//caft:zeroalloc
func (r *Ring) Reset(src []int) {
	buf := r.buf[:0]
	for _, v := range src {
		buf = append(buf, v) // ok: local bound to field scratch
	}
	r.buf = buf
	r.mat[0] = append(r.mat[0], 1) // ok: field-rooted through an index
}

// Collect appends into caller-owned memory.
//
//caft:zeroalloc
func (r *Ring) Collect(dst []int) []int {
	dst = append(dst, 1) // ok: parameter-rooted
	return dst
}

// Find drives sort.Search with a non-escaping literal.
//
//caft:zeroalloc
func (r *Ring) Find(x float64) int {
	return sort.Search(len(r.times), func(i int) bool { return r.times[i] >= x }) // ok: non-escaping
}

//caft:zeroalloc
func Fine(x int) float64 {
	return math.Abs(float64(x)) // ok: allowlisted package, numeric conversion
}

func helper() int { return 0 }

//caft:zeroalloc
func Bad(r *Ring, n int, s string, e error) {
	x := make([]int, n) // want `make allocates`
	_ = x
	p := new(int) // want `new allocates`
	_ = p
	m := map[int]int{} // want `map literal allocates`
	_ = m
	l := []int{1, 2} // want `slice literal allocates`
	_ = l
	h := &Ring{} // want `&composite literal allocates`
	_ = h
	v := Ring{} // ok: value struct literal stays on the stack
	_ = v
	var out []int
	out = append(out, n) // want `append through a slice not rooted in receiver scratch`
	_ = out
	f := func() int { return n } // want `function literal allocates a closure`
	_ = f
	go Fine(n)      // want `go statement allocates`
	_ = any(n)      // want `conversion to an interface type boxes its operand`
	b := []byte(s)  // want `string conversion copies its operand`
	s2 := string(b) // want `string conversion copies its operand`
	_ = s2
	s3 := s + "!" // want `string concatenation allocates`
	_ = s3
	_ = helper()             // want `call to a\.helper, which is not marked //caft:zeroalloc`
	_ = Fine(n)              // ok: zeroalloc callee
	_ = r.d.Dur()            // want `dynamic call to .*Dur through an interface`
	_ = r.fn()               // want `call through a function value`
	_ = errors.Is(e, errBad) // ok: allowlisted
}

// Lazy builds its overlay once; one directive covers both findings on
// the line.
//
//caft:zeroalloc
func Lazy() *Ring {
	return &Ring{buf: make([]int, 0, 4)} //caft:alloc-ok built once on first use and reused ever after
}

//caft:zeroalloc
func Sloppy() *Ring {
	//caft:alloc-ok
	return &Ring{} // want `//caft:alloc-ok needs a reason`
}

// Stack is generic: diagnostics in its methods name the receiver type
// without its type parameters.
type Stack[T any] struct {
	items []T
}

//caft:zeroalloc
func (s *Stack[T]) Push(v T) {
	s.items = append(s.items, v) // ok: field-rooted
	_ = make([]T, 1)             // want `make allocates in //caft:zeroalloc \(\*Stack\)\.Push;`
}

func NotHot() {
	_ = 1 //caft:alloc-ok unused // want `stale //caft:alloc-ok: no suppressed allocation site`
}

//caft:zeroalloc // want `stale //caft:zeroalloc: not the doc comment of a function declaration`

var sink int
