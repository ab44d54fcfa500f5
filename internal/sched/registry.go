package sched

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"caft/internal/timeline"
)

// Caps declares what a registered scheduler supports, so generic
// consumers (the service's request validation, the figure sweeps, the
// predictability harness) can drive any entry without per-algorithm
// special cases.
type Caps struct {
	// AcceptsEps is true for fault-tolerant schedulers that place ε+1
	// replicas per task. Fault-free references (HEFT, HOFT) must be
	// called with eps = 0 and their New rejects anything else.
	AcceptsEps bool
	// Append and Insertion flag the supported timeline reservation
	// policies.
	Append    bool
	Insertion bool
}

// Supports reports whether the scheduler handles the given reservation
// policy.
func (c Caps) Supports(p timeline.Policy) bool {
	if p == timeline.Insertion {
		return c.Insertion
	}
	return c.Append
}

// Descriptor is one registry entry: a scheduler constructor plus the
// metadata generic consumers need to drive it.
type Descriptor struct {
	// Name is the wire name ({"alg": name} in caftd requests, row labels
	// in the figure TSVs).
	Name string
	// ID is the stable wire/cache enum of the scheduler: it is hashed
	// into caftd's content-addressed cache keys (which appear in response
	// bytes), so IDs are append-only and never reused or renumbered —
	// the same discipline as protobuf field numbers. The in-tree
	// assignment: heft=0, caft=1, caft-greedy=2, ftsa=3, ftbar=4,
	// hoft=5.
	ID   int
	Caps Caps
	// New builds a schedule tolerating eps failures. Schedulers with
	// Caps.AcceptsEps false return an error for eps != 0.
	New func(p *Problem, eps int, rng *rand.Rand) (*Schedule, error)
}

var (
	regMu     sync.RWMutex
	regByName = map[string]Descriptor{}
	// regOrder holds the descriptors sorted by ID, so every listing
	// (Names, Registered) is deterministic regardless of package-init
	// order.
	regOrder []Descriptor
)

// Register adds a scheduler to the registry; packages call it from
// init(), so importing a scheduler package is all it takes for the
// service, the figures and the CLIs to pick it up. It panics on an
// invalid descriptor or on a name/ID collision — both are programmer
// errors, caught by any test that links the offending package.
func Register(d Descriptor) {
	if d.Name == "" || d.New == nil {
		panic("sched: Register needs a name and a constructor")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := regByName[d.Name]; dup {
		panic(fmt.Sprintf("sched: scheduler %q registered twice", d.Name))
	}
	for _, r := range regOrder {
		if r.ID == d.ID {
			panic(fmt.Sprintf("sched: schedulers %q and %q share ID %d (IDs are append-only cache enums)", r.Name, d.Name, d.ID))
		}
	}
	regByName[d.Name] = d
	regOrder = append(regOrder, d)
	sort.Slice(regOrder, func(i, j int) bool { return regOrder[i].ID < regOrder[j].ID })
}

// Lookup returns the descriptor registered under name. It allocates
// nothing: it sits on the service's request-validation and cache-hash
// fast paths.
//
//caft:zeroalloc
func Lookup(name string) (Descriptor, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	d, ok := regByName[name]
	return d, ok
}

// Names lists the registered scheduler names in ID order.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	out := make([]string, len(regOrder))
	for i, d := range regOrder {
		out[i] = d.Name
	}
	return out
}

// Registered returns a copy of all descriptors in ID order.
func Registered() []Descriptor {
	regMu.RLock()
	defer regMu.RUnlock()
	return append([]Descriptor(nil), regOrder...)
}
