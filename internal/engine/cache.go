package engine

import (
	"container/list"
	"sync"

	"samplecf/internal/core"
)

// cacheKey identifies one estimation result: everything that changes the
// outcome of a SampleCF run must appear here. Table identity is the
// catalog contract — process-unique instance id plus version epoch — so a
// mutation invalidates every prior entry by key inequality alone, and no
// table content is ever read to build a key.
type cacheKey struct {
	inst     uint64 // catalog.Table.InstanceID
	epoch    uint64 // catalog.Table.Epoch at request time
	columns  string // "\x00"-joined key column names
	codec    string
	fraction float64
	rows     int64
	seed     uint64
	pageSize int
	// fresh separates results computed from a forced direct draw
	// (Request.FreshSample) from maintained-sample results, so a fresh
	// request can never be answered with a maintained-sample estimate.
	fresh bool
	// shard scopes the entry to one shard of a partitioned table (wholeTable
	// for unsharded results). Per-shard entries carry the LOGICAL table's
	// inst, the shard's index, and the shard's own epoch, while fraction,
	// rows, and seed stay request-level: the shard's allocated sub-sample
	// size is a deterministic function of (request, shard-count snapshot),
	// and a cached shard estimate remains a valid unbiased CF_h estimate
	// even when churn elsewhere has shifted the proportional allocation —
	// that is exactly what lets untouched shards keep serving hits while a
	// hot shard's epoch races ahead.
	shard int
	// strata is Request.Strata (0 for unstratified entries): the strata
	// count changes the draw streams and the composed estimate, so it is
	// part of the outcome identity.
	strata int
}

// wholeTable is the cacheKey.shard value of unsharded (whole-table)
// entries; real shard indices are ≥ 0.
const wholeTable = -1

// lru is the engine's one LRU map, behind the result, precision,
// strata-directory, and stale caches. Capacity bounds the total weight of
// resident entries — their count, unless weight is set. Zero capacity
// disables residency: Get always misses and Put stores nothing.
type lru[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int64
	total    int64      // summed weight of resident entries
	order    *list.List // front = most recent; values are *lruItem[K, V]
	items    map[K]*list.Element
	// weight, when set, sizes each entry (else every entry weighs 1). The
	// most recent entry stays resident even when it alone exceeds capacity.
	weight func(V) int64
	// clone, when set, copies values on the way in and out, so no caller
	// ever aliases a resident value.
	clone func(V) V
	// keep, when set, lets a resident value survive a Put of v whenever
	// keep(resident, v) holds.
	keep func(resident, v V) bool
	// onEvict, when set, observes each capacity eviction.
	onEvict func()
}

type lruItem[K comparable, V any] struct {
	key K
	val V
}

// maxLRUSizeHint caps the map pre-size: a weighted capacity is in bytes,
// not entries.
const maxLRUSizeHint = 1024

func newLRU[K comparable, V any](capacity int) *lru[K, V] {
	capacity = max(capacity, 0)
	return &lru[K, V]{
		capacity: int64(capacity),
		order:    list.New(),
		items:    make(map[K]*list.Element, min(capacity, maxLRUSizeHint)),
	}
}

// Get returns key's value, refreshing its recency.
func (c *lru[K, V]) Get(key K) (V, bool) {
	var zero V
	if c.capacity == 0 {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.order.MoveToFront(el)
	v := el.Value.(*lruItem[K, V]).val
	if c.clone != nil {
		v = c.clone(v)
	}
	return v, true
}

// Put stores v under key, refreshing its recency and evicting
// least-recently-used entries while over capacity. It returns the value
// resident under key afterwards — v, or the kept incumbent (uncloned) —
// which makes Put a get-or-create for pointer values.
func (c *lru[K, V]) Put(key K, v V) V {
	if c.capacity == 0 {
		return v
	}
	if c.clone != nil {
		v = c.clone(v)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.order.MoveToFront(el)
		it := el.Value.(*lruItem[K, V])
		if c.keep != nil && c.keep(it.val, v) {
			return it.val
		}
		c.total += c.weigh(v) - c.weigh(it.val)
		it.val = v
	} else {
		c.items[key] = c.order.PushFront(&lruItem[K, V]{key: key, val: v})
		c.total += c.weigh(v)
	}
	for c.total > c.capacity && c.order.Len() > 1 {
		oldest := c.order.Remove(c.order.Back()).(*lruItem[K, V])
		delete(c.items, oldest.key)
		c.total -= c.weigh(oldest.val)
		if c.onEvict != nil {
			c.onEvict()
		}
	}
	return v
}

// weigh is v's share of the capacity.
func (c *lru[K, V]) weigh(v V) int64 {
	if c.weight == nil {
		return 1
	}
	return c.weight(v)
}

// Weight reports the summed weight of resident entries.
func (c *lru[K, V]) Weight() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}

// Len reports the current entry count.
func (c *lru[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}

// precisionKey identifies the family of adaptive estimates a cached
// precision entry can answer: everything that changes the estimand, but —
// deliberately — not the sample size, fraction, or seed. A precision-
// targeted request asks for an accuracy, not a specific sample, so any
// entry for the same (instance, epoch, columns, codec, page size,
// freshness) whose achieved interval is at least as tight dominates it.
type precisionKey struct {
	inst     uint64
	epoch    uint64
	columns  string // "\x00"-joined key column names
	codec    string
	pageSize int
	fresh    bool
	// epochs is the packed per-shard epoch vector of a partitioned table
	// ("" for unsharded). The summed epoch alone could alias two distinct
	// vectors (one shard +2 vs. two shards +1 each); the vector cannot.
	epochs string
	// strata is Request.Strata (0 for unstratified entries). Stratified and
	// unstratified adaptive results estimate the same CF, but their CI
	// machinery differs (composed vs. whole-sample variance), so dominance
	// is only claimed within one strata setting.
	strata int
}

// precisionEntry is one cached adaptive outcome.
type precisionEntry struct {
	est core.Estimate
	// sdScale is the confidence-free size of the achieved interval: the
	// half-width at confidence z is sdScale·z (Theorem 1: 1/(2√r);
	// bootstrap: SD). Storing the scale rather than a half-width lets one
	// entry answer requests at any confidence level.
	sdScale float64
	rounds  int
}

// newPrecisionCache is the adaptive complement of the result cache: per
// precisionKey it holds the tightest estimate achieved so far — a looser
// result never replaces a tighter one, since dominance is one-directional.
// Lookups go through precisionHit.
func newPrecisionCache(capacity int) *lru[precisionKey, precisionEntry] {
	c := newLRU[precisionKey, precisionEntry](capacity)
	c.clone = func(ent precisionEntry) precisionEntry {
		ent.est = cloneEstimate(ent.est)
		return ent
	}
	c.keep = func(resident, ent precisionEntry) bool { return resident.sdScale <= ent.sdScale }
	return c
}

// precisionHit answers an adaptive request from the precision cache by
// dominance: a hit when the stored interval, rescaled to the request's
// confidence, is within the requested target error.
func (e *Engine) precisionHit(pk precisionKey, req Request) (Result, bool) {
	z := zFor(req.Confidence)
	ent, ok := e.precision.Get(pk)
	if !ok || ent.sdScale*z > req.TargetError {
		return Result{}, false
	}
	return Result{
		Estimate:      ent.est,
		CacheHit:      true,
		AchievedError: ent.sdScale * z,
		Rounds:        ent.rounds,
		Converged:     true,
	}, true
}

// cloneEstimate copies the one mutable field of an Estimate (the profile's
// frequency map); everything else is value-typed.
func cloneEstimate(est core.Estimate) core.Estimate {
	f := make(map[int64]int64, len(est.Profile.F))
	for k, v := range est.Profile.F {
		f[k] = v
	}
	est.Profile.F = f
	return est
}
