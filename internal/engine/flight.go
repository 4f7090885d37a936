// Cross-request coalescing: concurrent identical cache misses collapse
// into one pipeline execution whose result fans out to every waiter.
//
// The batch-level dedup structures (sampleGroup, prepGroup, adaptiveGroup)
// only share work inside one WhatIf call; two HTTP clients asking the same
// question at the same moment arrive as separate batches and, before this
// file, each drew its own sample. The flight group extends the dedup
// across requests: a miss opens a flight keyed by the exact key the result
// cache uses (cacheKey for fixed-r and stratified requests,
// adaptiveGroupKey for precision-targeted ones — distinct Go types, so the
// two key spaces cannot collide in the map), later identical misses join
// it as waiters, and the leader's result fans out to all of them.
// Scattered requests over partitioned tables do not coalesce at the
// request level: their work units resolve against the per-shard cache at
// plan time, and that cache already absorbs cross-request reuse per shard.
//
// Cancellation is per-waiter and reference-counted: the shared computation
// runs on a context detached from the leader's (context.WithoutCancel), a
// party that abandons the flight only decrements the count, and the shared
// context is cancelled only when the last party leaves before completion.
// One waiter's deadline therefore never poisons the rest.
package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
)

// flight is one in-progress computation plus its waiter ledger.
type flight struct {
	// done closes after res is set and the flight is removed from the
	// group's map — a joiner can never observe a closed done while the
	// flight is still joinable.
	done   chan struct{}
	cancel context.CancelFunc

	mu       sync.Mutex
	refs     int // parties (leader + waiters) still interested
	finished bool
	res      Result
}

// detach records one party losing interest. Before completion the last
// departure cancels the shared computation; after completion it is a no-op.
func (f *flight) detach() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.finished {
		return
	}
	f.refs--
	if f.refs == 0 && f.cancel != nil {
		f.cancel()
	}
}

// flightGroup indexes in-progress computations by result-cache key.
type flightGroup struct {
	mu sync.Mutex
	m  map[any]*flight
}

// flightKey resolves the coalescing key for a batch item: the result-cache
// key for fixed-r and stratified requests, the adaptive group key
// (reconstructed exactly as WhatIf builds it) for precision-targeted ones,
// and nil — no coalescing — for scattered items and for the breaker's
// background refreshes. A refresh shares its cache key with the probe that
// spawned it, whose flight stays open until the probe's stale answer is
// published: joining it would hand the refresh that stale result, and the
// breaker would never hear the refresh's outcome.
func flightKey(it *batchItem) any {
	if it.shards != nil || it.req.bypassBreaker {
		return nil
	}
	if it.req.TargetError > 0 {
		return adaptiveGroupKey{
			pkey: it.pkey, target: it.req.TargetError, confidence: it.req.Confidence,
			maxRows: it.req.MaxSampleRows, fraction: it.req.Fraction,
			rows: it.req.SampleRows, seed: it.req.Seed, partial: it.req.AllowPartial,
		}
	}
	return it.key
}

// coalesce runs one batch item through the flight group: join an existing
// flight as a waiter, or open one and lead the computation. Waiters get a
// deep copy of the leader's result (cache entries are cloned on Get for
// the same reason: Estimate.Profile is mutable) marked Coalesced.
func (e *Engine) coalesce(ctx context.Context, key any, it *batchItem) Result {
	e.flights.mu.Lock()
	if f, ok := e.flights.m[key]; ok {
		f.mu.Lock()
		f.refs++
		f.mu.Unlock()
		e.flights.mu.Unlock()
		return e.awaitFlight(ctx, f, it)
	}
	f := &flight{done: make(chan struct{}), refs: 1}
	fctx, cancel := context.WithCancel(context.WithoutCancel(ctx))
	f.cancel = cancel
	if e.flights.m == nil {
		e.flights.m = make(map[any]*flight)
	}
	e.flights.m[key] = f
	e.flights.mu.Unlock()

	// The leader computes inline on the detached context; if its own ctx
	// expires while waiters remain, the computation keeps running for them
	// (AfterFunc detaches the leader's reference, which cancels fctx only
	// at refs == 0).
	stop := context.AfterFunc(ctx, f.detach)
	res := e.evaluateRechecked(fctx, it)

	f.mu.Lock()
	f.finished = true
	f.res = res
	f.mu.Unlock()
	// Remove from the map before signalling completion, so a racing miss
	// opens a fresh flight (and re-checks the now-populated cache) instead
	// of joining a finished one.
	e.flights.mu.Lock()
	if e.flights.m[key] == f {
		delete(e.flights.m, key)
	}
	e.flights.mu.Unlock()
	close(f.done)
	stop()
	cancel()
	return res
}

// awaitFlight blocks a waiter on an in-progress flight.
func (e *Engine) awaitFlight(ctx context.Context, f *flight, it *batchItem) Result {
	select {
	case <-f.done:
	case <-ctx.Done():
		f.detach()
		return Result{Err: fmt.Errorf("engine: request %d: %w", it.idx, ctx.Err())}
	}
	f.mu.Lock()
	res := f.res
	f.mu.Unlock()
	if res.Err != nil {
		// A context error can reach a live waiter through one narrow race:
		// every party left, the shared context cancelled, and this waiter
		// joined mid-abort. Its own deadline is fine, so compute directly
		// rather than inheriting someone else's cancellation.
		if errors.Is(res.Err, context.Canceled) || errors.Is(res.Err, context.DeadlineExceeded) {
			if ctx.Err() == nil {
				return e.evaluateRechecked(ctx, it)
			}
		}
		return Result{Err: res.Err}
	}
	e.coalescedWaits.Add(1)
	res.Estimate = cloneEstimate(res.Estimate)
	res.Coalesced = true
	return res
}

// evaluateRechecked is the flight leader's entry point: re-consult the
// result cache (fixed/stratified) or precision cache (adaptive) before
// computing. The front-door lookup in WhatIf ran before this item reached
// the pool, and an earlier flight on the same key may have completed in
// between — on a small pool a K-wide stampede serializes, and without this
// recheck each serialized leader would redraw. The recheck does not touch
// the hit/miss counters: those are the front-door ledger, and this item
// already counted as a miss.
func (e *Engine) evaluateRechecked(ctx context.Context, it *batchItem) Result {
	if it.req.TargetError > 0 {
		if res, ok := e.precisionHit(it.pkey, it.req); ok {
			return res
		}
	} else if est, ok := e.cache.Get(it.key); ok {
		return Result{Estimate: est, CacheHit: true}
	}
	return e.evaluateMiss(ctx, it)
}
