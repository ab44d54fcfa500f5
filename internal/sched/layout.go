package sched

import (
	"fmt"
	"slices"
)

// Layout is the resource ID scheme of a problem, derived by NewLayout.
// State (one timeline per resource) and sim.Wiring (the resources each
// op occupies) both number their resources by it. IDs [0,m) are the
// compute resources, [m,2m) the send ports, [2m,3m) the receive ports
// and [3m,3m+S) the S shared links.
//
// Under the one-port model a transfer holds the sender's send port,
// every link of its route and the receiver's receive port. A link whose
// transfers all leave one sender holds a subset of that sender's
// send-port reservations, and one whose transfers all reach one
// receiver a subset of that receiver's receive-port reservations, in
// the same placement order. A slot free on the port is then free on the
// link, under either policy, and in a replay the link's previous holder
// finishes no later than the port's, so such a port-implied link never
// constrains anything and gets no resource. Only a link with several
// senders and several receivers is shared. No link of the clique is
// shared (its link src->dst carries only src->dst transfers), and none
// of a topology made of single-processor access links such as the star.
// See DESIGN.md S1.
//
// A Layout is read-only once built; copies share its link table.
type Layout struct {
	m     int
	net   Network
	macro bool
	// linkID maps a network link to its resource ID, or to -1 when the
	// link is port-implied; nil when every link is.
	linkID []int32
	size   int
}

// NewLayout derives the resource layout of p from its routes.
func NewLayout(p *Problem) Layout {
	m := p.Plat.M
	l := Layout{m: m, net: p.Network(), macro: p.Model == MacroDataflow, size: 3 * m}
	if _, ok := l.net.(Clique); ok {
		return l
	}
	const none, several = -1, -2
	n := l.net.NumLinks()
	from, to := make([]int, n), make([]int, n)
	for k := range from {
		from[k], to[k] = none, none
	}
	note := func(who *int, proc int) {
		if *who == none {
			*who = proc
		} else if *who != proc {
			*who = several
		}
	}
	for src := 0; src < m; src++ {
		for dst := 0; dst < m; dst++ {
			for _, k := range l.net.Route(src, dst) {
				note(&from[k], src)
				note(&to[k], dst)
			}
		}
	}
	linkID := make([]int32, n)
	for k := range linkID {
		linkID[k] = none
		if from[k] == several && to[k] == several {
			linkID[k] = int32(l.size)
			l.size++
		}
	}
	if l.size > 3*m {
		l.linkID = linkID
	}
	return l
}

// Size returns the number of resources: 3m plus the shared links.
//
//caft:zeroalloc
func (l *Layout) Size() int { return l.size }

// Procs returns the number of processors m.
//
//caft:zeroalloc
func (l *Layout) Procs() int { return l.m }

// Network returns the problem's interconnect.
//
//caft:zeroalloc
func (l *Layout) Network() Network { return l.net }

// Name names resource id in errors: "compute P3", "send port P3",
// "recv port P3", or "link 7" with a shared link's network link ID.
func (l *Layout) Name(id int32) string {
	if kind := int(id) / l.m; kind < 3 {
		return fmt.Sprintf("%s P%d", [...]string{"compute", "send port", "recv port"}[kind], int(id)%l.m)
	}
	return fmt.Sprintf("link %d", slices.Index(l.linkID, id))
}

// Compute returns the resource ID of processor proc's compute timeline.
//
//caft:zeroalloc
func (l *Layout) Compute(proc int) int32 { return int32(proc) }

// AppendComm appends to ids the resources a transfer src->dst holds and
// returns the extended slice: none when src == dst or under the
// macro-dataflow model, and otherwise the send port, the receive port
// and the shared links of the route, in route order.
//
//caft:zeroalloc
func (l *Layout) AppendComm(ids []int32, src, dst int) []int32 {
	if src == dst || l.macro {
		return ids
	}
	ids = append(ids, int32(l.m+src), int32(2*l.m+dst))
	if l.linkID != nil {
		for _, k := range l.net.Route(src, dst) { //caft:alloc-ok topology interface call; in-tree sparse networks return a cached route
			if id := l.linkID[k]; id >= 0 {
				ids = append(ids, id)
			}
		}
	}
	return ids
}
