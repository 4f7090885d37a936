// Stratified estimation through the engine: Request.Strata cuts the key
// domain into contiguous memcomparable ranges and samples each by its own
// stream (internal/core's stratified estimators). The engine's contribution
// is plumbing, not statistics — a per-table-version directory cache (the
// O(n) stratify scan runs once per (instance, epoch, columns, strata), not
// per request), boundary resolution that prefers free sources (an existing
// index's separator keys, then a maintained reservoir's observed keys, then
// the fixed-seed pilot), and composition with shard scatter: a partitioned
// table stratifies within each shard, the shard×stratum cells becoming one
// flat arm set with weights rescaled to the whole table.
//
// Arm sets are also how the engine runs every sharded or stratified
// precision-targeted request: a shard is an arm like a stratum, so
// runArmsAdaptive drives them all through core.AdaptiveEstimateStratified,
// with retries, fault points, and partial-result degradation applied once
// at the arm boundary (guardArms).
//
// Stratified draws are always fresh: the directory indexes physical row
// positions, so per-stratum streams must read the table itself — the
// maintained-sample fast path serves only boundary resolution here.
package engine

import (
	"context"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"samplecf/internal/catalog"
	"samplecf/internal/core"
	"samplecf/internal/obs"
	"samplecf/internal/sampling"
	"samplecf/internal/value"
)

// dirKey identifies one cached strata directory: the table version plus
// everything the partition depends on. No seed — boundaries derive from the
// index walk, the reservoir snapshot, or the fixed pilot seed, never the
// request seed, so every request at one table version shares one partition.
type dirKey struct {
	inst    uint64
	epoch   uint64
	columns string // "\x00"-joined key column names
	strata  int
}

// dirEntry is one directory build, shared once-style by every request that
// resolves the same key while the entry is resident.
type dirEntry struct {
	once sync.Once
	// bytes is the directory's index size, 4 B per row of its table or
	// shard: known before the build, so it weighs the entry from its Put.
	bytes int64
	dir   *sampling.StrataDirectory
	err   error
}

// strataDirBudget bounds the directory index bytes the strata cache keeps
// resident: 64 MiB holds ~16M row indices, a few dozen directories of a
// 250k-row table. A count bound would let the cache pin 4 B per row of
// every table times its entry capacity.
const strataDirBudget = 64 << 20

// newStrataCache holds one directory entry per dirKey, weighed by index
// bytes against budget; a lone directory over budget still stays resident.
// The resident entry always wins a Put, which makes Put a get-or-create:
// every resolver of a key shares the first entry and its build.
func newStrataCache(budget int) *lru[dirKey, *dirEntry] {
	c := newLRU[dirKey, *dirEntry](budget)
	c.weight = func(ent *dirEntry) int64 { return ent.bytes }
	c.keep = func(*dirEntry, *dirEntry) bool { return true }
	return c
}

// resolveBounds picks the cheapest available boundary source for one table:
// an existing ordered index's separator walk (no row access at all), the
// maintained reservoir's observed keys at the matching epoch (no storage
// draw), and only then the fixed-seed pilot sample.
func (e *Engine) resolveBounds(tab Table, epoch uint64, keyCols []string, strata int) ([][]byte, error) {
	if strata <= 1 {
		return nil, nil
	}
	if ib, ok := tab.(catalog.IndexBoundaryProvider); ok {
		if bounds, ok := ib.IndexKeyBoundaries(keyCols, strata); ok {
			return bounds, nil
		}
	}
	if sp, ok := tab.(catalog.SampleProvider); ok {
		if s, ok := sp.MaintainedSample(1); ok && s.Epoch == epoch {
			proj, err := core.ProjectSample(s.Arena, keyCols)
			if err != nil {
				return nil, err
			}
			keys := make([][]byte, proj.Len())
			for i := range keys {
				keys[i] = proj.Key(i)
			}
			return core.EquiDepthFromKeys(keys, strata), nil
		}
	}
	return core.PilotBoundaries(tab, tab.Schema(), keyCols, strata)
}

// tableArms builds the per-stratum arms of one catalog table — the whole
// table, or one shard of a partitioned one — resolving the directory through
// the cache and wiring the rows-per-stratum ledger into each arm's draws. A
// cache miss's build (boundary resolution plus the stratify scan) is timed
// as the stratify stage.
func (e *Engine) tableArms(ctx context.Context, tab Table, epoch uint64, keyCols []string, strata int, seed uint64) ([]core.StratumArm, error) {
	schema := tab.Schema()
	ent := e.strataDirs.Put(dirKey{
		inst: tab.InstanceID(), epoch: epoch,
		columns: strings.Join(keyCols, "\x00"), strata: strata,
	}, &dirEntry{bytes: 4 * tab.NumRows()})
	ent.once.Do(func() {
		e.strataDirBuilds.Add(1)
		_, end := obs.StartSpan(ctx, stageStratify)
		t0 := time.Now()
		defer func() {
			e.stageStratifyHist.Observe(time.Since(t0))
			end.End()
		}()
		bounds, err := e.resolveBounds(tab, epoch, keyCols, strata)
		if err != nil {
			ent.err = err
			return
		}
		ent.dir, ent.err = core.StratifyTable(tab, schema, keyCols, bounds)
	})
	if ent.err != nil {
		return nil, ent.err
	}
	arms := core.DirectoryArms(tab, schema, keyCols, ent.dir, seed)
	for i := range arms {
		e.instrumentArm(&arms[i], i)
	}
	return arms, nil
}

// instrumentArm threads the rows-per-stratum counter through an arm's draw
// closures; stratum is the arm's index among its table's non-empty strata.
func (e *Engine) instrumentArm(arm *core.StratumArm, stratum int) {
	c := e.strataRows.With(strconv.Itoa(stratum))
	draw, ext := arm.Draw, arm.Extend
	arm.Draw = func(r int64) (*value.RecordArena, error) {
		ar, err := draw(r)
		if err == nil && ar != nil {
			c.Add(uint64(ar.Len()))
		}
		return ar, err
	}
	arm.Extend = func(round int, extra int64) (*value.RecordArena, error) {
		ar, err := ext(round, extra)
		if err == nil && ar != nil {
			c.Add(uint64(ar.Len()))
		}
		return ar, err
	}
}

// requestArms resolves a request's full arm set and each arm's shard
// (wholeTable for an unsharded table): per stratum for a plain table, per
// shard for a partitioned one, per shard×stratum cell for a stratified
// partitioned one. Each shard stratifies independently (its own boundaries,
// directory, and Weyl-derived seed lineage shardSeed→StreamSeed), and cell
// weights rescale from within-shard shares to whole-table shares, so the
// flat arm set composes by the same stratified algebra either way.
func (e *Engine) requestArms(ctx context.Context, req Request, epoch uint64) ([]core.StratumArm, []int, error) {
	sh, ok := req.Table.(catalog.Sharded)
	if !ok {
		arms, err := e.tableArms(ctx, req.Table, epoch, req.KeyColumns, req.Strata, req.Seed)
		shardOf := make([]int, len(arms))
		for i := range shardOf {
			shardOf[i] = wholeTable
		}
		return arms, shardOf, err
	}
	ns := sh.NumShards()
	epochs := sh.EpochVector()
	counts := make([]int64, ns)
	var total int64
	for s := 0; s < ns; s++ {
		counts[s] = sh.Shard(s).NumRows()
		total += counts[s]
	}
	if total == 0 {
		return nil, nil, fmt.Errorf("table %q is empty", req.Table.Name())
	}
	var arms []core.StratumArm
	var shardOf []int
	for s := 0; s < ns; s++ {
		if counts[s] == 0 {
			continue
		}
		scale := float64(counts[s]) / float64(total)
		seed := shardSeed(req.Seed, s)
		if req.Strata == 0 {
			arms = append(arms, shardArm(req, sh.Shard(s), s, scale, seed))
			shardOf = append(shardOf, s)
			continue
		}
		sub, err := e.tableArms(ctx, sh.Shard(s), epochs[s], req.KeyColumns, req.Strata, seed)
		if err != nil {
			return nil, nil, fmt.Errorf("shard %d: %w", s, err)
		}
		for i := range sub {
			sub[i].Weight *= scale
			sub[i].Label = fmt.Sprintf("shard %d/%s", s, sub[i].Label)
			shardOf = append(shardOf, s)
		}
		arms = append(arms, sub...)
	}
	return arms, shardOf, nil
}

// shardArm is one whole shard as an adaptive arm: weight N_h/N and a
// resumable uniform-WR stream over the shard under its own seed. Shard 0
// keeps the request seed, so a 1-shard table draws the unsharded stream.
func shardArm(req Request, shard Table, h int, weight float64, seed uint64) core.StratumArm {
	return core.StratumArm{
		Label:  fmt.Sprintf("shard %d", h),
		Weight: weight,
		Rows:   shard.NumRows(),
		Seed:   seed,
		Extend: func(round int, extra int64) (*value.RecordArena, error) {
			full := value.NewRecordArena(req.Table.Schema(), int(extra))
			if err := sampling.ExtendWRInto(shard, full, extra, seed, round); err != nil {
				return nil, err
			}
			return core.ProjectSample(full, req.KeyColumns)
		},
	}
}

// evaluateStratified runs one fixed-r stratified request on a pool worker:
// resolve the arms, allocate r proportionally across them, run the
// per-stratum draws (core.EstimateStratified bounds its own fan-out), and
// cache the merged estimate under the request-level key.
func (e *Engine) evaluateStratified(ctx context.Context, it *batchItem) Result {
	req := it.req
	e.stratified.Add(1)
	arms, _, err := e.requestArms(ctx, req, it.key.epoch)
	if err != nil {
		return Result{Err: fmt.Errorf("engine: request %d: stratify: %w", it.idx, err)}
	}
	e.strataCountHist.Observe(time.Duration(len(arms)))
	r := req.SampleRows
	if r <= 0 {
		r = sampling.SampleSize(req.Table.NumRows(), req.Fraction)
	}
	counts := make([]int64, len(arms))
	for i := range arms {
		counts[i] = arms[i].Rows
	}
	alloc := sampling.Allocate(r, counts, nil)
	e.samplesDrawn.Add(1)
	_, end := obs.StartSpan(ctx, stageCompress)
	t0 := time.Now()
	est, err := core.EstimateStratified(arms, alloc, core.Options{
		Codec: req.Codec, PageSize: it.pageSize, Seed: req.Seed, Strata: req.Strata,
	})
	e.stageCompressHist.Observe(time.Since(t0))
	end.End()
	if err != nil {
		return Result{Err: fmt.Errorf("engine: request %d: %w", it.idx, err)}
	}
	e.evaluated.Add(1)
	e.cache.Put(it.key, est)
	return Result{Estimate: est}
}

// runArmsAdaptive is the precision-targeted loop for every arm-set request
// — stratified, sharded, or both: arms from requestArms, guarded once at
// the arm boundary (guardArms), proportional round-0 allocation (doubling
// as the Neyman pilot), then core.AdaptiveEstimateStratified's
// dominance-routed refinement. Under AllowPartial on a partitioned table,
// arms whose draws keep failing drop out and their shards return for the
// Degraded result; a degraded outcome never publishes to the precision
// cache, which must not serve a survivors-only interval as a whole-table
// result.
func (e *Engine) runArmsAdaptive(ctx context.Context, it *batchItem) (core.AdaptiveResult, []int, error) {
	req := it.req
	arms, shardOf, err := e.requestArms(ctx, req, it.pkey.epoch)
	if err != nil {
		if req.Strata > 0 {
			err = fmt.Errorf("stratify: %w", err)
		}
		return core.AdaptiveResult{}, nil, err
	}
	if req.Strata > 0 {
		e.stratified.Add(1)
		e.strataCountHist.Observe(time.Duration(len(arms)))
	}
	_, partitioned := req.Table.(catalog.Sharded)
	e.guardArms(ctx, arms, shardOf, partitioned && req.AllowPartial)
	counts := make([]int64, len(arms))
	for i := range arms {
		counts[i] = arms[i].Rows
	}
	round0 := sampling.Allocate(initialAdaptiveRows(req), counts, nil)
	e.samplesDrawn.Add(uint64(len(arms)))
	_, endRounds := obs.StartSpan(ctx, stageRounds)
	t0 := time.Now()
	res, err := core.AdaptiveEstimateStratified(arms, round0, precisionTarget(req), core.Options{
		Codec: req.Codec, PageSize: it.pageSize, Seed: req.Seed, Strata: req.Strata,
	})
	e.stageRoundsHist.Observe(time.Since(t0))
	endRounds.End()
	if err != nil {
		return core.AdaptiveResult{}, nil, err
	}
	e.prepared.Add(uint64(len(arms) - len(res.Dropped)))
	e.prepareNanos.Add(uint64(res.PrepDuration.Nanoseconds()))
	e.sortRows.Add(uint64(res.Estimate.SampleRows))
	e.adaptiveRounds.Add(uint64(res.Rounds))
	e.adaptiveRows.Add(uint64(res.Estimate.SampleRows))
	e.evaluated.Add(1)
	if len(res.Dropped) == 0 {
		e.precision.Put(it.pkey, precisionEntry{
			est: res.Estimate, sdScale: res.AchievedError / zFor(req.Confidence), rounds: res.Rounds,
		})
		return res, nil, nil
	}
	e.degradedResults.Add(1)
	var failed []int
	for _, i := range res.Dropped {
		if s := shardOf[i]; len(failed) == 0 || failed[len(failed)-1] != s {
			failed = append(failed, s)
		}
	}
	return res, failed, nil
}
