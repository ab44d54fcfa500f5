package expt

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// unitSeed derives the PRNG seed of one work unit from the experiment's
// base seed, the cell the unit belongs to (a granularity, a table row, a
// topology, ...) and the unit's index within the cell. The splitmix64
// finalizer spreads nearby (cell, unit) pairs over the whole seed space,
// so every unit gets an independent stream regardless of which worker
// runs it — this is what makes the parallel engine's output a pure
// function of (seed, cell, unit) and therefore identical for any worker
// count.
func unitSeed(base int64, cell, unit int) int64 {
	h := uint64(base) + 0x9e3779b97f4a7c15*uint64(cell+1) + 0xbf58476d1ce4e5b9*uint64(unit+1)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return int64(h)
}

// runCells evaluates fn(cell, gi) for graphs gi = 0..graphs-1 of every
// cell 0..cells-1 on the work-unit pool and returns the results grouped
// by cell, in graph order. It is the engine of every table: the
// (cell, graph) units are independent, each seeding its own PRNG.
func runCells[T any](workers, cells, graphs int, fn func(cell, gi int) (T, error)) ([][]T, error) {
	if graphs < 0 {
		return nil, fmt.Errorf("expt: negative graph count %d", graphs)
	}
	units, err := runUnits(workers, cells*graphs, func(u int) (T, error) { return fn(u/graphs, u%graphs) })
	if err != nil {
		return nil, err
	}
	out := make([][]T, cells)
	for c := range out {
		out[c] = units[c*graphs : (c+1)*graphs]
	}
	return out, nil
}

// runUnits evaluates fn for every unit 0..n-1 across a pool of workers
// (0 or negative means GOMAXPROCS) and returns the results in unit
// order. Units must be independent — fn seeds its own PRNG from the
// unit index. A failing unit stops the pool from claiming further
// units; which of several concurrent failures is reported can depend on
// scheduling, but a failing sweep always returns an error.
func runUnits[T any](workers, n int, fn func(u int) (T, error)) ([]T, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0) //caft:nondet-ok worker count; results merge in unit order
	}
	workers = min(workers, n)
	out := make([]T, n)
	errs := make([]error, n)
	var failed atomic.Bool
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !failed.Load() {
				u := int(next.Add(1)) - 1
				if u >= n {
					return
				}
				if out[u], errs[u] = fn(u); errs[u] != nil {
					failed.Store(true)
				}
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}
