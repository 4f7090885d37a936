// Stratified estimation: SampleCF with the key domain cut into contiguous
// memcomparable-key ranges, each range sampled by its own stream. Uniform
// sampling of a skewed table spends most rows re-observing the hot part of
// the domain; stratifying removes the between-strata variance component,
// and Neyman allocation (n_h ∝ N_h·σ_h) spends the refinement rows where
// the residual within-stratum spread is. The mechanics live in
// internal/sampling (boundaries, directory, per-stratum resumable streams);
// this file owns composition — weights, merged estimates, the composed
// confidence interval z·√(Σ w_h²σ_h²) — and the precision-targeted loop
// that extends only the strata whose variance contribution dominates. The
// engine runs its sharded adaptive requests through the same loop: a shard
// is an arm like a stratum.
//
// A note on what stratification can and cannot buy: Theorem 1's bound is
// data-independent — composed across strata at proportional allocation it
// reproduces 1/(2√R) exactly — so null-suppression codecs see no CI
// improvement from strata. The win is for bootstrap-CI codecs on skewed
// data, where within-stratum samples are more homogeneous than the table.
package core

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/stats"
	"samplecf/internal/value"
	"samplecf/internal/workgroup"
)

// IndexBoundarySource is the index-assisted stratification capability,
// structural so core never imports the storage layer (catalog declares the
// canonical copy; db.Table implements it): an existing ordered index over
// the key columns yields equi-depth cut points from a walk of its separator
// keys, with no table scan.
type IndexBoundarySource interface {
	IndexKeyBoundaries(keyCols []string, strata int) (bounds [][]byte, ok bool)
}

// pilotSeed fixes the boundary pilot's draw stream. Boundaries must depend
// only on (table, key columns, strata count) — never the request seed — so
// repeated requests agree on one partition and directory caches need no
// seed in their key.
const pilotSeed uint64 = 0x70696c6f74 // "pilot"

// pilotRows is the boundary pilot's sample size: enough that the empirical
// key quantiles are stable at the handful-of-strata granularity requests
// use, small enough to be noise next to any real estimation sample.
const pilotRows int64 = 1024

// StratumBoundaries resolves up to strata-1 ascending boundary keys for the
// index on keyCols: from an existing index's separator walk when src offers
// one (IndexBoundarySource), from a fixed-seed pilot sample's empirical
// quantiles otherwise. strata ≤ 1 is the degenerate single stratum — nil
// boundaries, no pilot drawn.
func StratumBoundaries(src sampling.RowSource, schema *value.Schema, keyCols []string, strata int) ([][]byte, error) {
	if strata <= 1 {
		return nil, nil
	}
	if ib, ok := src.(IndexBoundarySource); ok {
		if bounds, ok := ib.IndexKeyBoundaries(keyCols, strata); ok {
			return bounds, nil
		}
	}
	return PilotBoundaries(src, schema, keyCols, strata)
}

// PilotBoundaries draws the fixed-seed pilot sample and cuts its sorted
// keys at equi-depth ranks.
func PilotBoundaries(src sampling.RowSource, schema *value.Schema, keyCols []string, strata int) ([][]byte, error) {
	if src.NumRows() == 0 {
		return nil, fmt.Errorf("core: source table is empty")
	}
	full := value.NewRecordArena(schema, int(pilotRows))
	if err := sampling.UniformWRInto(src, pilotRows, rng.New(pilotSeed), full); err != nil {
		return nil, fmt.Errorf("core: boundary pilot: %w", err)
	}
	proj, err := ProjectSample(full, keyCols)
	if err != nil {
		return nil, err
	}
	keys := make([][]byte, proj.Len())
	for i := range keys {
		keys[i] = proj.Key(i)
	}
	return EquiDepthFromKeys(keys, strata), nil
}

// EquiDepthFromKeys derives up to strata-1 boundaries from any observed key
// sample — a pilot draw or a maintained reservoir snapshot. The input is
// not mutated.
func EquiDepthFromKeys(keys [][]byte, strata int) [][]byte {
	sorted := make([][]byte, len(keys))
	copy(sorted, keys)
	sort.Slice(sorted, func(i, j int) bool { return bytes.Compare(sorted[i], sorted[j]) < 0 })
	return sampling.EquiDepthBoundaries(len(sorted), strata, func(i int) []byte { return sorted[i] })
}

// StratifyTable buckets src's rows by key range under the index projection:
// the one O(n) scan a stratified estimation needs (the engine caches the
// result per table version).
func StratifyTable(src sampling.RowSource, schema *value.Schema, keyCols []string, bounds [][]byte) (*sampling.StrataDirectory, error) {
	keySchema, project, err := keyProjection(schema, keyCols)
	if err != nil {
		return nil, err
	}
	ks, err := sampling.NewKeyStrata(bounds)
	if err != nil {
		return nil, err
	}
	return sampling.BuildStrataDirectory(src, ks, keySchema, project)
}

// StratumArm is one stratum's sampling stream in a stratified estimation —
// or one shard×stratum cell's, when stratification composes with a shard
// scatter. Draw serves the fixed-size path (one-shot, the arm's base
// stream); Extend serves the adaptive path (resumable rounds, round 0
// included). Both return rows already projected to the index key schema.
type StratumArm struct {
	// Label names the arm in errors ("stratum 3", "shard 1/stratum 2").
	Label string
	// Weight is the arm's population share N_h/N.
	Weight float64
	// Rows is the arm's population size N_h.
	Rows int64
	// Seed is the arm's stream seed (sampling.StreamSeed of the request
	// seed); it also decorrelates the arm's bootstrap resamples.
	Seed uint64
	// Draw returns a one-shot sample of r rows (fixed-size path).
	Draw func(r int64) (*value.RecordArena, error)
	// Extend returns round `round` of the arm's resumable stream
	// (adaptive path).
	Extend ExtendFunc
}

// MergeStratified composes per-stratum estimates into one whole-table
// estimate per the sampling algebra: CF is the weight-composed stratified
// mean, counts and byte totals sum, frequency profiles merge, and stage
// durations take the max (the arms ran in parallel). A single stratum
// passes through verbatim — the degenerate estimate is byte-identical to
// its one arm's, compressed pages (Result.Encoded) included.
func MergeStratified(weights []float64, ests []Estimate) Estimate {
	if len(ests) == 1 {
		return ests[0]
	}
	strata := make([]stats.Stratum, len(ests))
	var out Estimate
	f := make(map[int64]int64)
	for i, est := range ests {
		strata[i] = stats.Stratum{Weight: weights[i], Mean: est.CF}
		out.SampleRows += est.SampleRows
		// SampleDistinct and the merged profile sum per-stratum distincts:
		// exact for range strata on the key domain (a key belongs to one
		// stratum), an upper bound when arms overlap in key space.
		out.SampleDistinct += est.SampleDistinct
		out.Profile.N += est.Profile.N
		out.Profile.R += est.Profile.R
		out.Profile.D += est.Profile.D
		for k, v := range est.Profile.F {
			f[k] += v
		}
		out.Result.UncompressedBytes += est.Result.UncompressedBytes
		out.Result.CompressedBytes += est.Result.CompressedBytes
		out.Result.Rows += est.Result.Rows
		out.Result.Pages += est.Result.Pages
		out.Result.DictEntries += est.Result.DictEntries
		if est.SampleDuration > out.SampleDuration {
			out.SampleDuration = est.SampleDuration
		}
		if est.BuildDuration > out.BuildDuration {
			out.BuildDuration = est.BuildDuration
		}
		if est.CompressDuration > out.CompressDuration {
			out.CompressDuration = est.CompressDuration
		}
	}
	out.Profile.F = f
	out.CF = stats.StratifiedMean(strata)
	return out
}

// EstimateStratified runs the fixed-size stratified estimator: every arm
// draws its allocated rows and prepares its sorted index (PrepareArms),
// then the arms compress under opts.Codec and merge by stratified
// composition (ArmSet.Estimate).
func EstimateStratified(arms []StratumArm, alloc []int64, opts Options) (Estimate, error) {
	if err := validateCodecOpts(opts); err != nil {
		return Estimate{}, err
	}
	set, err := PrepareArms(arms, alloc)
	if err != nil {
		return Estimate{}, err
	}
	return set.Estimate(opts)
}

// ArmSet is a fixed-size stratified sample drawn and prepared once: one
// sorted index per arm, codec-independent, so every codec of a what-if
// batch compresses the same per-arm samples. Estimate is safe for
// concurrent use.
type ArmSet struct {
	arms      []StratumArm
	preps     []*PreparedIndex
	sampleDur []time.Duration
}

// PrepareArms draws each arm's allocated rows and prepares its index, the
// arms fanned out over the bounded workgroup. Every failed arm's error is
// joined into the one returned.
func PrepareArms(arms []StratumArm, alloc []int64) (*ArmSet, error) {
	if len(arms) == 0 {
		return nil, fmt.Errorf("core: stratified estimation needs at least one stratum")
	}
	if len(alloc) != len(arms) {
		return nil, fmt.Errorf("core: %d allocations for %d strata", len(alloc), len(arms))
	}
	set := &ArmSet{arms: arms, preps: make([]*PreparedIndex, len(arms)), sampleDur: make([]time.Duration, len(arms))}
	errs := make([]error, len(arms))
	workgroup.Each(len(arms), func(i int) {
		defer workgroup.Recover(&errs[i])
		t0 := time.Now()
		ar, err := arms[i].Draw(alloc[i])
		if err != nil {
			errs[i] = fmt.Errorf("core: %s: %w", arms[i].Label, err)
			return
		}
		set.sampleDur[i] = time.Since(t0)
		if set.preps[i], err = PrepareFromArena(ar, arms[i].Rows, nil); err != nil {
			errs[i] = fmt.Errorf("core: %s: %w", arms[i].Label, err)
		}
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return set, nil
}

// NumArms returns the number of arms in the set.
func (s *ArmSet) NumArms() int { return len(s.arms) }

// PrepDuration totals the arms' encode+sort+profile time.
func (s *ArmSet) PrepDuration() time.Duration {
	var d time.Duration
	for _, p := range s.preps {
		d += p.PrepDuration()
	}
	return d
}

// SampleRows totals the rows the arms drew.
func (s *ArmSet) SampleRows() int64 {
	var r int64
	for _, p := range s.preps {
		r += p.SampleRows()
	}
	return r
}

// Estimate compresses every arm's prepared index under opts.Codec (each
// arm's bootstrap stream seeded by its own Seed) and merges the per-arm
// estimates by stratified composition.
func (s *ArmSet) Estimate(opts Options) (Estimate, error) {
	if err := validateCodecOpts(opts); err != nil {
		return Estimate{}, err
	}
	ests := make([]Estimate, len(s.arms))
	errs := make([]error, len(s.arms))
	workgroup.Each(len(s.arms), func(i int) {
		defer workgroup.Recover(&errs[i])
		armOpts := opts
		armOpts.Seed = s.arms[i].Seed
		est, err := s.preps[i].Estimate(armOpts)
		if err != nil {
			errs[i] = fmt.Errorf("core: %s: %w", s.arms[i].Label, err)
			return
		}
		est.SampleDuration = s.sampleDur[i]
		ests[i] = est
	})
	if err := errors.Join(errs...); err != nil {
		return Estimate{}, err
	}
	weights := make([]float64, len(s.arms))
	for i := range s.arms {
		weights[i] = s.arms[i].Weight
	}
	return MergeStratified(weights, ests), nil
}

// validateCodecOpts rejects options no arm could estimate under, before
// any arm draws or compresses.
func validateCodecOpts(opts Options) error {
	if err := opts.Validate(); err != nil {
		return err
	}
	if opts.Codec == nil {
		return fmt.Errorf("core: Options.Codec is required")
	}
	return nil
}

// Droppable marks an arm's Extend failure as one the caller tolerates:
// AdaptiveEstimateStratified drops such an arm, reporting it in
// AdaptiveResult.Dropped, instead of failing — as long as an arm survives.
// The error's message and chain are unchanged.
func Droppable(err error) error { return droppableError{err} }

type droppableError struct{ error }

func (e droppableError) Unwrap() error { return e.error }

// armLoop is one arm's state in a stratified adaptive estimation: its own
// resumable stream, prepared index, and current (estimate, SD) pair.
type armLoop struct {
	idx    int // position in the caller's arm slice
	arm    *StratumArm
	prep   *PreparedIndex
	round  int // next draw round in this arm's stream
	est    Estimate
	sd     float64
	method string
	dirty  bool // est/sd stale after an extension
	err    error
}

// AdaptiveEstimateStratified is the precision-targeted loop over stratified
// arms — strata, shards, or shard×stratum cells alike: per-arm resumable
// streams, per-arm CI scales composed by stratified variance (half-width
// z·√(Σ w_h²σ_h²)), and — the part that makes stratification pay —
// extensions routed only to the arms whose variance contribution
// (w_h·σ_h)² dominates the composed variance (within 2× of the largest,
// always including the argmax). Round 0 is allocated by the caller
// (proportional: it doubles as the pilot); later rounds double the chosen
// arms' total and split it by Neyman allocation over the pilot-observed
// σ_h, so rows land where population mass times spread is.
//
// An arm whose Extend fails with a Droppable error leaves the loop — the
// survivors' weights renormalize through the stratified algebra and
// AdaptiveResult.Dropped names it. Any other failure, or one that would
// leave no arm alive, fails the loop with every failed arm's error joined.
func AdaptiveEstimateStratified(arms []StratumArm, round0 []int64, target Precision, opts Options) (AdaptiveResult, error) {
	if err := target.Validate(); err != nil {
		return AdaptiveResult{}, err
	}
	if err := opts.Validate(); err != nil {
		return AdaptiveResult{}, err
	}
	target = target.withDefaults()
	opts = opts.withDefaults()
	if opts.Codec == nil {
		return AdaptiveResult{}, fmt.Errorf("core: Options.Codec is required")
	}
	if len(arms) == 0 {
		return AdaptiveResult{}, fmt.Errorf("core: stratified estimation needs at least one stratum")
	}
	if len(round0) != len(arms) {
		return AdaptiveResult{}, fmt.Errorf("core: %d allocations for %d strata", len(round0), len(arms))
	}
	z := stats.NormalQuantile(1 - (1-target.Confidence)/2)

	loops := make([]*armLoop, len(arms))
	for i := range arms {
		loops[i] = &armLoop{idx: i, arm: &arms[i], dirty: true}
	}
	res := AdaptiveResult{}

	// grow draws extra rows from one arm's resumable stream and folds them
	// into its prepared index (the first call prepares).
	grow := func(l *armLoop, extra int64) (err error) {
		defer workgroup.Recover(&err)
		proj, err := l.arm.Extend(l.round, extra)
		if err != nil {
			return err
		}
		if proj == nil || proj.Len() == 0 {
			return fmt.Errorf("extension supplied no rows")
		}
		l.round++
		l.dirty = true
		if l.prep == nil {
			l.prep, err = PrepareFromArena(proj, l.arm.Rows, nil)
			return err
		}
		return l.prep.ExtendFromArena(proj)
	}

	// scatter fans grow calls across the bounded workgroup semaphore (never
	// an engine pool — callers may already run on a pool worker), then
	// drops the Droppable failures or fails the loop.
	scatter := func(targets []*armLoop, extras []int64) error {
		workgroup.Each(len(targets), func(i int) {
			targets[i].err = grow(targets[i], extras[i])
		})
		var errs []error
		strict := false
		for _, l := range targets {
			if l.err != nil {
				errs = append(errs, fmt.Errorf("core: %s: %w", l.arm.Label, l.err))
				var d droppableError
				strict = strict || !errors.As(l.err, &d)
			}
		}
		if len(errs) == 0 {
			return nil
		}
		if strict || len(errs) == len(loops) {
			return errors.Join(errs...)
		}
		live := loops[:0]
		for _, l := range loops {
			if l.err != nil {
				res.Dropped = append(res.Dropped, l.idx)
			} else {
				live = append(live, l)
			}
		}
		loops = live
		return nil
	}

	if err := scatter(loops, round0); err != nil {
		return AdaptiveResult{}, err
	}

	var cf, half float64
	for {
		strata := make([]stats.Stratum, len(loops))
		for i, l := range loops {
			if l.dirty {
				armOpts := opts
				armOpts.Seed = l.arm.Seed
				est, err := l.prep.Estimate(armOpts)
				if err != nil {
					return AdaptiveResult{}, fmt.Errorf("core: %s: %w", l.arm.Label, err)
				}
				method, sd, err := l.prep.SDScale(armOpts, target, l.round)
				if err != nil {
					return AdaptiveResult{}, fmt.Errorf("core: %s: %w", l.arm.Label, err)
				}
				l.est, l.method, l.sd, l.dirty = est, method, sd, false
			}
			strata[i] = stats.Stratum{Weight: l.arm.Weight, Mean: l.est.CF, SD: l.sd}
		}
		res.Rounds++
		res.Method = loops[0].method
		cf = stats.StratifiedMean(strata)
		half = z * stats.StratifiedSD(strata)
		if half <= target.TargetError {
			res.Converged = true
			break
		}
		var rows int64
		for _, l := range loops {
			rows += l.prep.SampleRows()
		}
		if target.MaxSampleRows > 0 && rows >= target.MaxSampleRows {
			break // budget exhausted: honest non-convergence
		}
		// Choose the arms whose variance contribution dominates, double
		// their cumulative sample, and split the new rows by Neyman
		// allocation across the chosen arms.
		var maxC float64
		for _, l := range loops {
			if c := l.arm.Weight * l.sd * l.arm.Weight * l.sd; c > maxC {
				maxC = c
			}
		}
		var chosen []*armLoop
		var counts []int64
		var sigmas []float64
		var want int64
		for _, l := range loops {
			if c := l.arm.Weight * l.sd * l.arm.Weight * l.sd; c >= maxC/2 {
				chosen = append(chosen, l)
				counts = append(counts, l.arm.Rows)
				sigmas = append(sigmas, l.sd)
				want += l.prep.SampleRows()
			}
		}
		extras := sampling.NeymanAllocate(want, counts, sigmas)
		if remaining := target.MaxSampleRows - rows; target.MaxSampleRows > 0 && want > remaining {
			// Scale the extras to the remaining budget, at least one row
			// each; a slight overshoot just ends the loop next round.
			var scaled int64
			for i := range extras {
				extras[i] = extras[i] * remaining / want
				if extras[i] < 1 {
					extras[i] = 1
				}
				scaled += extras[i]
			}
			for i := len(extras) - 1; i >= 0 && scaled > remaining; i-- {
				cut := extras[i] - 1
				if over := scaled - remaining; cut > over {
					cut = over
				}
				extras[i] -= cut
				scaled -= cut
			}
		}
		if err := scatter(chosen, extras); err != nil {
			return AdaptiveResult{}, err
		}
	}

	weights := make([]float64, len(loops))
	ests := make([]Estimate, len(loops))
	for i, l := range loops {
		weights[i] = l.arm.Weight
		ests[i] = l.est
		res.PrepDuration += l.prep.PrepDuration()
	}
	res.Estimate = MergeStratified(weights, ests)
	res.AchievedError = half
	res.CILo, res.CIHi = clamp01(cf-half), clamp01(cf+half)
	return res, nil
}

// DirectoryArms builds one StratumArm per non-empty stratum of a directory
// with per-stratum Weyl-derived stream seeds — the engine's entry point to
// arm construction. Allocations are the caller's concern: align them with
// the returned arms' Rows (sampling.Allocate over that slice).
func DirectoryArms(src sampling.RowSource, schema *value.Schema, keyCols []string,
	dir *sampling.StrataDirectory, seed uint64) []StratumArm {
	arms, _ := directoryArms(src, schema, keyCols, dir, seed, make([]int64, len(dir.Counts())))
	return arms
}

// directoryArms builds one StratumArm per non-empty stratum of a directory,
// with per-stratum Weyl-derived stream seeds (stratum 0 keeps the base
// seed) and both draw shapes wired: the one-shot Draw uses the arm's base
// stream — so a single identity stratum replays UniformWRInto exactly —
// and Extend derives round streams like the package-level resumable draws.
// The returned allocation is aligned with the arms (empty strata dropped).
func directoryArms(src sampling.RowSource, schema *value.Schema, keyCols []string,
	dir *sampling.StrataDirectory, seed uint64, alloc []int64) ([]StratumArm, []int64) {
	counts := dir.Counts()
	n := dir.NumRows()
	arms := make([]StratumArm, 0, len(counts))
	armAlloc := make([]int64, 0, len(counts))
	for h := range counts {
		if counts[h] == 0 {
			continue
		}
		h := h
		armSeed := sampling.StreamSeed(seed, h)
		arms = append(arms, StratumArm{
			Label:  fmt.Sprintf("stratum %d", h),
			Weight: float64(counts[h]) / float64(n),
			Rows:   counts[h],
			Seed:   armSeed,
			Draw: func(r int64) (*value.RecordArena, error) {
				full := value.NewRecordArena(schema, int(r))
				if err := dir.WRInto(src, h, r, rng.New(armSeed), full); err != nil {
					return nil, err
				}
				return ProjectSample(full, keyCols)
			},
			Extend: func(round int, extra int64) (*value.RecordArena, error) {
				full := value.NewRecordArena(schema, int(extra))
				if err := dir.ExtendWRInto(src, h, full, extra, armSeed, round); err != nil {
					return nil, err
				}
				return ProjectSample(full, keyCols)
			},
		})
		armAlloc = append(armAlloc, alloc[h])
	}
	return arms, armAlloc
}

// sampleCFStratified is SampleCF's fixed-size stratified route: resolve
// boundaries (index-assisted or pilot), build the directory, allocate r
// proportionally, and run the per-stratum draws.
func sampleCFStratified(src sampling.RowSource, schema *value.Schema, opts Options, r int64) (Estimate, error) {
	t0 := time.Now()
	bounds, err := StratumBoundaries(src, schema, opts.KeyColumns, opts.Strata)
	if err != nil {
		return Estimate{}, err
	}
	dir, err := StratifyTable(src, schema, opts.KeyColumns, bounds)
	if err != nil {
		return Estimate{}, err
	}
	alloc := sampling.Allocate(r, dir.Counts(), nil)
	arms, armAlloc := directoryArms(src, schema, opts.KeyColumns, dir, opts.Seed, alloc)
	dirDur := time.Since(t0)
	est, err := EstimateStratified(arms, armAlloc, opts)
	if err != nil {
		return Estimate{}, err
	}
	est.SampleDuration += dirDur
	return est, nil
}

// sampleCFAdaptiveStratified is SampleCFAdaptive's stratified route: same
// boundary/directory resolution, proportional round-0 allocation (the
// pilot), then the Neyman-refined adaptive loop.
func sampleCFAdaptiveStratified(src sampling.RowSource, schema *value.Schema,
	opts Options, target Precision, r0 int64) (AdaptiveResult, error) {
	bounds, err := StratumBoundaries(src, schema, opts.KeyColumns, opts.Strata)
	if err != nil {
		return AdaptiveResult{}, err
	}
	dir, err := StratifyTable(src, schema, opts.KeyColumns, bounds)
	if err != nil {
		return AdaptiveResult{}, err
	}
	alloc := sampling.Allocate(r0, dir.Counts(), nil)
	arms, round0 := directoryArms(src, schema, opts.KeyColumns, dir, opts.Seed, alloc)
	return AdaptiveEstimateStratified(arms, round0, target, opts)
}
