// Sharded scatter-gather estimation: what-if requests against a
// partitioned table (catalog.Sharded) are split into one sub-request per
// shard, evaluated shard-parallel, and recombined by stratified
// composition (internal/stats). Each shard is a full catalog table with
// its own epoch, so the per-shard result cache keeps serving untouched
// shards' entries while a hot shard's churn invalidates only its own —
// the whole point of partitioning the cache key space. Precision-targeted
// requests do not scatter here: each shard becomes one arm of core's
// stratified adaptive loop (runArmsAdaptive in strata.go).
package engine

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"samplecf/internal/catalog"
	"samplecf/internal/core"
	"samplecf/internal/sampling"
	"samplecf/internal/workgroup"
)

// sgKey identifies a shared sample draw within one batch: one draw per
// (table instance, epoch, size, seed), whether the table is a whole table
// or one shard of a partitioned one.
type sgKey struct {
	inst  uint64
	epoch uint64
	r     int64
	seed  uint64
}

// pgKey identifies a shared prepared index within one batch.
type pgKey struct {
	sg   sgKey
	cols string
}

// shardWork is one shard's slice of a scattered fixed-r request.
type shardWork struct {
	shard  int
	table  Table
	epoch  uint64
	weight float64 // N_h/N at plan time
	rows   int64   // allocated sub-sample size r_h
	seed   uint64
	key    cacheKey
	sg     *sampleGroup
	pg     *prepGroup
	hit    bool
	est    core.Estimate
	err    error
}

// shardSeed derives shard h's sample-stream seed. Shard 0 keeps the base
// seed, so a 1-shard table draws the byte-identical sample an unsharded
// table would (the golden-equivalence contract); higher shards decorrelate
// by a Weyl step.
func shardSeed(seed uint64, shard int) uint64 {
	return seed ^ (uint64(shard) * 0x9e3779b97f4a7c15)
}

// packEpochs renders an epoch vector for the precision cache key. The
// summed epoch alone could alias two distinct vectors; the packed vector
// cannot.
func packEpochs(epochs []uint64) string {
	b := make([]byte, 0, 8*len(epochs))
	for _, e := range epochs {
		b = strconv.AppendUint(b, e, 16)
		b = append(b, ',')
	}
	return string(b)
}

// planScatter resolves one fixed-r request against a partitioned table:
// snapshot the shard counts and epochs, allocate the sample across shards,
// and consult the per-shard cache. A fully-cached request gathers
// immediately (done=true); otherwise the returned batch item carries one
// work unit per non-empty shard, with missed shards wired into the batch's
// sample/prep dedup groups.
func (e *Engine) planScatter(idx int, req Request, pageSize int, r int64, sh catalog.Sharded,
	sampleGroups map[sgKey]*sampleGroup, prepGroups map[pgKey]*prepGroup) (*batchItem, Result, bool) {
	ns := sh.NumShards()
	counts := make([]int64, ns)
	var total int64
	for h := range counts {
		counts[h] = sh.Shard(h).NumRows()
		total += counts[h]
	}
	if total == 0 {
		return nil, Result{Err: fmt.Errorf("engine: request %d: table %q is empty", idx, req.Table.Name())}, true
	}
	alloc := sampling.Allocate(r, counts, nil)
	epochs := sh.EpochVector()
	inst := req.Table.InstanceID()
	cols := strings.Join(req.KeyColumns, "\x00")
	works := make([]*shardWork, 0, ns)
	allHit := true
	for h := 0; h < ns; h++ {
		if counts[h] == 0 {
			continue
		}
		w := &shardWork{
			shard:  h,
			table:  sh.Shard(h),
			epoch:  epochs[h],
			weight: float64(counts[h]) / float64(total),
			rows:   alloc[h],
			seed:   shardSeed(req.Seed, h),
			key: cacheKey{
				inst:    inst,
				epoch:   epochs[h],
				columns: cols,
				codec:   req.Codec.Name(),
				// fraction/rows/seed stay request-level (not the allocated
				// r_h): the allocation drifts as OTHER shards' counts move,
				// and a cached shard estimate at a stale r_h is still a
				// valid unbiased CF_h estimate — re-keying on r_h would let
				// one hot shard's churn miss every shard's entry.
				fraction: req.Fraction,
				rows:     req.SampleRows,
				seed:     req.Seed,
				pageSize: pageSize,
				fresh:    req.FreshSample,
				shard:    h,
			},
		}
		if est, ok := e.cache.Get(w.key); ok {
			e.shardHits.Add(1)
			w.hit, w.est = true, est
		} else {
			e.shardMisses.Add(1)
			allHit = false
		}
		works = append(works, w)
	}
	if allHit {
		e.hits.Add(1)
		return nil, Result{Estimate: mergeShardEstimates(works), CacheHit: true}, true
	}
	e.misses.Add(1)
	for _, w := range works {
		if w.hit {
			continue
		}
		sk := sgKey{inst: w.table.InstanceID(), epoch: w.epoch, r: w.rows, seed: w.seed}
		sg, ok := sampleGroups[sk]
		if !ok {
			sg = &sampleGroup{table: w.table, r: w.rows, seed: w.seed, epoch: w.epoch}
			sampleGroups[sk] = sg
		}
		if req.FreshSample {
			sg.fresh = true
		}
		sg.members++
		pk := pgKey{sg: sk, cols: cols}
		pg, ok := prepGroups[pk]
		if !ok {
			pg = &prepGroup{sg: sg, keyCols: req.KeyColumns}
			prepGroups[pk] = pg
		}
		pg.members++
		w.sg, w.pg = sg, pg
	}
	return &batchItem{idx: idx, req: req, pageSize: pageSize, shards: works}, Result{}, false
}

// evaluateScatter runs one scattered request on a pool worker: the missed
// shards fan out over the bounded workgroup semaphore — never the engine's
// own pool, where a worker waiting on sub-jobs submitted behind it would
// deadlock under saturation — and the per-shard estimates (cached and
// computed alike) gather into one stratified whole-table estimate.
//
// Failed shards retry with capped jittered backoff; shards still failed
// after the retries either fail the whole request with every shard's
// error joined, or — under Request.AllowPartial — drop out of the gather,
// which then merges the survivors under renormalized stratified weights
// (stats.StratifiedMean divides by Σw, so passing the survivors with
// their plan-time weights IS the renormalization) and reports Degraded
// with a widened interval.
func (e *Engine) evaluateScatter(ctx context.Context, it *batchItem) Result {
	e.shardScatters.Add(1)
	t0 := time.Now()
	var missed []*shardWork
	for _, w := range it.shards {
		if !w.hit {
			missed = append(missed, w)
		}
	}
	todo := missed
	e.retry(ctx, it.req.Seed, func(retry bool) int {
		if retry {
			// Fresh private sample/prep groups: the shared once-groups
			// latched the failure for the whole batch, and only a new group
			// can re-draw.
			for _, w := range todo {
				w.err = nil
				sg := &sampleGroup{table: w.table, r: w.rows, seed: w.seed, epoch: w.epoch,
					fresh: it.req.FreshSample, members: 1}
				w.sg = sg
				w.pg = &prepGroup{sg: sg, keyCols: it.req.KeyColumns, members: 1}
			}
		}
		e.scatterShardWork(ctx, it, todo)
		var failed []*shardWork
		for _, w := range todo {
			if retryable(w.err) {
				failed = append(failed, w)
			}
		}
		todo = failed
		return len(failed)
	})

	var failed, survivors []*shardWork
	for _, w := range it.shards {
		if w.err != nil {
			failed = append(failed, w)
		} else {
			survivors = append(survivors, w)
		}
	}
	if len(failed) > 0 && (!it.req.AllowPartial || len(survivors) == 0) {
		errs := make([]error, 0, len(failed))
		for _, w := range failed {
			errs = append(errs, fmt.Errorf("shard %d: %w", w.shard, w.err))
		}
		return Result{Err: fmt.Errorf("engine: request %d: %w", it.idx, errors.Join(errs...))}
	}
	e.evaluated.Add(1)
	shared := false
	for _, w := range missed {
		if w.err == nil && w.sg.members > 1 {
			shared = true
		}
	}
	if shared {
		e.samplesShared.Add(1)
	}
	est := mergeShardEstimates(survivors)
	e.scatterHist.Observe(time.Since(t0))
	if len(failed) > 0 {
		e.degradedResults.Add(1)
		ids := make([]int, len(failed))
		for i, w := range failed {
			ids[i] = w.shard
		}
		sort.Ints(ids)
		// The degraded merge is never cached under the whole-table
		// identity (the scatter path has no request-level cache entry to
		// begin with), and the failed shards stayed out of the per-shard
		// cache, so the next request retries them.
		return Result{
			Estimate:      est,
			SharedSample:  shared,
			Degraded:      true,
			ShardsFailed:  ids,
			AchievedError: degradedHalfWidth(survivors),
		}
	}
	return Result{Estimate: est, SharedSample: shared}
}

// scatterShardWork fans a set of shard work units across the bounded
// workgroup semaphore, each under the shard panic trap (goroutine and
// inline fallback alike).
func (e *Engine) scatterShardWork(ctx context.Context, it *batchItem, works []*shardWork) {
	workgroup.Each(len(works), func(i int) {
		defer e.trapShardPanic(&works[i].err)
		e.evaluateShardWork(ctx, it, works[i])
	})
}

// evaluateShardWork is the per-shard slice of evaluate: the fixed-r work
// unit body over the shard's sample/prep groups, cached under the
// per-shard key.
func (e *Engine) evaluateShardWork(ctx context.Context, it *batchItem, w *shardWork) {
	if err := scatterPoint.Check1(uint64(w.shard)); err != nil {
		w.err = err
		return
	}
	w.est, w.err = e.computeFixed(ctx, w.sg, w.pg, it.req.Codec, it.pageSize)
	if w.err == nil {
		e.cache.Put(w.key, w.est)
	}
}

// mergeShardEstimates composes per-shard estimates into one whole-table
// estimate by stratified composition (core.MergeStratified): CF is the
// size-weighted stratified mean, counts and byte totals sum, frequency
// profiles merge, and stage durations take the max (the shards ran in
// parallel). A single stratum passes through verbatim — a 1-shard table's
// estimate is byte-identical to the unsharded path's, compressed pages
// (Result.Encoded) included.
func mergeShardEstimates(works []*shardWork) core.Estimate {
	weights := make([]float64, len(works))
	ests := make([]core.Estimate, len(works))
	for i, w := range works {
		weights[i] = w.weight
		ests[i] = w.est
	}
	return core.MergeStratified(weights, ests)
}
