// Package workgroup is the shared bounded-fan-out discipline of the
// estimation hot paths. Every per-operation parallel stage in the system —
// compress.MeasureArena's page fan-out, sortkeys' bucket recursion, the
// sharded TrueCF ground-truth scan — uses the same bound: at most
// min(GOMAXPROCS, MaxWorkers) goroutines per operation, because the layers
// above (the engine's worker pool, the advisor's batch) already parallelize
// across operations and a wide per-operation fan-out would oversubscribe
// the machine.
package workgroup

import (
	"runtime"
	"sync"

	"samplecf/internal/faults"
	"samplecf/internal/obs"
)

// metricActive gauges how many extra goroutines all Sems in the process
// currently admit — the fan-out occupancy of the per-operation parallel
// stages, updated with one atomic add per acquire/release.
var metricActive = obs.Default().Gauge(
	"samplecf_workgroup_active_goroutines",
	"Extra goroutines currently admitted by bounded worker-group semaphores.")

// MaxWorkers caps one operation's fan-out regardless of core count; a
// small group per operation soaks up leftover cores without starving the
// candidate-level parallelism above it.
const MaxWorkers = 8

// Limit returns the worker-group width for an operation with `units`
// independent pieces of work: min(GOMAXPROCS, MaxWorkers, units), never
// below 1. Callers treat a return of 1 as "run sequentially".
func Limit(units int) int {
	w := runtime.GOMAXPROCS(0)
	if w > MaxWorkers {
		w = MaxWorkers
	}
	if w > units {
		w = units
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sem is a counting semaphore bounding the EXTRA goroutines an operation
// may spawn beyond its calling goroutine. A nil Sem admits no extra
// goroutines — TryAcquire on it always fails — so sequential callers pass
// nil instead of branching.
type Sem chan struct{}

// NewSem returns a semaphore admitting n extra goroutines (n ≤ 0 yields a
// nil Sem: strictly sequential).
func NewSem(n int) Sem {
	if n <= 0 {
		return nil
	}
	return make(Sem, n)
}

// TryAcquire claims a goroutine slot without blocking; the caller must
// Release it when the goroutine exits.
func (s Sem) TryAcquire() bool {
	if s == nil {
		return false
	}
	select {
	case s <- struct{}{}:
		metricActive.Inc()
		return true
	default:
		return false
	}
}

// Release returns a slot claimed by TryAcquire.
func (s Sem) Release() {
	<-s
	metricActive.Dec()
}

// Recover is the fan-out panic trap: `defer workgroup.Recover(&err)` at
// the top of a worker-group goroutine (or of the inline fallback running
// the same work) converts a panic into a *faults.PanicError stored in
// *errp — carrying the injection point when the panic was injected, and
// this goroutine's stack either way — so one poisoned unit of work
// surfaces as that unit's error instead of crashing the process. The
// stored error overwrites *errp: a panic mid-work supersedes whatever
// partial error the work had produced.
func Recover(errp *error) {
	if r := recover(); r != nil {
		*errp = faults.AsError(r)
	}
}

// Each runs work(i) for every i in [0, units) under the bounded fan-out:
// a unit starts on a new goroutine while the Limit(units)-wide group has a
// free slot and runs inline on the caller otherwise. Each returns once
// every unit has. work must trap its own panics (Recover) — a panic on an
// extra goroutine would otherwise crash the process.
func Each(units int, work func(i int)) {
	sem := NewSem(Limit(units) - 1)
	var wg sync.WaitGroup
	for i := 0; i < units; i++ {
		if sem.TryAcquire() {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				defer sem.Release()
				work(i)
			}(i)
		} else {
			work(i)
		}
	}
	wg.Wait()
}
