// Package sched provides the shared machinery of all the schedulers in
// this repository: the scheduling problem definition (task graph +
// heterogeneous platform + communication model), the resource state that
// enforces the bidirectional one-port model of the paper (each processor
// sends to at most one and receives from at most one processor at a
// time, communications on a link are serialized, computation overlaps
// communication), replica and communication records, schedule
// validation, and the priority-driven free-task list shared by the
// list-scheduling heuristics.
//
//caft:deterministic
package sched

import (
	"fmt"

	"caft/internal/dag"
	"caft/internal/platform"
	"caft/internal/timeline"
)

// Model selects the communication model under which scheduling
// decisions are made.
type Model int

const (
	// OnePort is the paper's bidirectional one-port model: every
	// communication exclusively occupies the sender's send port, the
	// link(s) it crosses and the receiver's receive port for its whole
	// duration.
	OnePort Model = iota
	// MacroDataflow is the traditional contention-free model: a
	// communication is constrained only by the finish time of its source
	// task; an unbounded number of messages may overlap.
	MacroDataflow
)

//caft:zeroalloc
func (m Model) String() string {
	switch m {
	case OnePort:
		return "one-port"
	case MacroDataflow:
		return "macro-dataflow"
	default:
		return fmt.Sprintf("Model(%d)", int(m)) //caft:alloc-ok out-of-range debug rendering; unreachable for the defined models
	}
}

// Network abstracts the interconnect: it maps a processor pair to the
// directed links a message crosses and to the transfer duration of a
// given data volume. The default is the paper's fully connected
// (clique) network with dedicated links; package topology provides
// sparse interconnects with routing tables (the paper's Section 7
// extension).
type Network interface {
	// NumLinks returns the number of directed links; link IDs are
	// [0, NumLinks).
	NumLinks() int
	// Route returns the directed link IDs crossed by a message from src
	// to dst, in order. It must return nil when src == dst.
	Route(src, dst int) []int
	// Dur returns the transfer time of volume units from src to dst
	// (zero when src == dst). It must be monotone (non-decreasing) in
	// volume: State bounds every transfer on a port or link from below
	// by the duration of the smallest edge volume.
	Dur(src, dst int, volume float64) float64
	// MeanUnitDelay returns the average unit-volume transfer time over
	// distinct processor pairs; it drives priority path lengths.
	MeanUnitDelay() float64
}

// Clique is the paper's fully connected network: one dedicated directed
// link per ordered processor pair, with unit delays taken from the
// platform's delay matrix.
type Clique struct {
	Plat *platform.Platform
}

// NumLinks returns m*m directed links (diagonal entries are unused).
func (c Clique) NumLinks() int { return c.Plat.M * c.Plat.M }

// Route returns the single dedicated link src->dst.
func (c Clique) Route(src, dst int) []int {
	if src == dst {
		return nil
	}
	return []int{src*c.Plat.M + dst}
}

// Dur returns volume * d(src, dst).
func (c Clique) Dur(src, dst int, volume float64) float64 {
	return volume * c.Plat.Delay[src][dst]
}

// MeanUnitDelay returns the platform's mean unit delay.
func (c Clique) MeanUnitDelay() float64 { return c.Plat.MeanDelay() }

// Problem bundles everything a scheduler needs: the DAG, the platform,
// the execution-time matrix E(t,P), the communication model, the
// timeline reservation policy and (optionally) a sparse network. A nil
// Net means the clique network over Plat.
type Problem struct {
	G      *dag.DAG
	Plat   *platform.Platform
	Exec   platform.ExecMatrix
	Model  Model
	Policy timeline.Policy
	Net    Network

	// ProbeWidth bounds placement probing: when positive, schedulers
	// that consult State.Candidates probe only the ProbeWidth processors
	// with the best optimistic-finish-time lower bound for the task
	// (hoft's OFT table), instead of all m. 0 (the default) probes every
	// processor and is bit-for-bit identical to the unbounded behavior;
	// so is any width >= m. Schedulers may probe more than ProbeWidth
	// processors when correctness demands it (eps+1 replicas need eps+1
	// distinct processors, and failed placements fall back to the full
	// set), so a small width bounds work, not feasibility.
	ProbeWidth int
}

// Network returns the effective interconnect (Net or the clique).
func (p *Problem) Network() Network {
	if p.Net != nil {
		return p.Net
	}
	return Clique{Plat: p.Plat}
}

// Validate checks the problem for shape consistency.
func (p *Problem) Validate() error {
	if p.G == nil || p.Plat == nil {
		return fmt.Errorf("sched: nil graph or platform")
	}
	if err := p.G.Validate(); err != nil {
		return err
	}
	if err := p.Plat.Validate(); err != nil {
		return err
	}
	if err := p.Exec.Validate(p.G, p.Plat); err != nil {
		return err
	}
	if p.Plat.M < 1 {
		return fmt.Errorf("sched: platform has no processors")
	}
	return nil
}
