package engine

import (
	"context"
	"strings"
	"testing"

	"samplecf/internal/db"
	"samplecf/internal/obs"
)

// TestStratifiedSingleStratumMatchesPlain pins the engine's degenerate
// contract: a Strata=1 fixed-r request reproduces the plain fresh-draw
// estimate byte-for-byte (stratum 0 keeps the request seed and a one-arm
// merge passes through verbatim).
func TestStratifiedSingleStratumMatchesPlain(t *testing.T) {
	tab := testTable(t, "strat1", 6000, 11)
	e := New(Config{Workers: 2, CacheEntries: -1})
	defer e.Close()
	for _, codecName := range []string{"nullsuppression", "rle"} {
		plain := e.Estimate(context.Background(), Request{
			Table: tab, Codec: codec(t, codecName), SampleRows: 500, Seed: 9, FreshSample: true,
		})
		strat := e.Estimate(context.Background(), Request{
			Table: tab, Codec: codec(t, codecName), SampleRows: 500, Seed: 9, FreshSample: true,
			Strata: 1,
		})
		if plain.Err != nil || strat.Err != nil {
			t.Fatalf("errs: %v / %v", plain.Err, strat.Err)
		}
		p, s := plain.Estimate, strat.Estimate
		if p.CF != s.CF || p.SampleRows != s.SampleRows ||
			p.SampleDistinct != s.SampleDistinct ||
			p.Result.CompressedBytes != s.Result.CompressedBytes ||
			p.Result.UncompressedBytes != s.Result.UncompressedBytes {
			t.Errorf("%s: strata=1 (CF %v, r %d) != plain (CF %v, r %d)",
				codecName, s.CF, s.SampleRows, p.CF, p.SampleRows)
		}
	}
}

// TestStratifiedResultCached checks stratified results land in the LRU under
// their own strata-scoped key: a repeat hits, a different strata count
// misses, and the directory cache absorbs the repeat stratify scans.
func TestStratifiedResultCached(t *testing.T) {
	tab := testTable(t, "stratcache", 6000, 3)
	e := New(Config{Workers: 2})
	defer e.Close()
	req := Request{Table: tab, Codec: codec(t, "rle"), SampleRows: 400, Seed: 5, Strata: 4}
	first := e.Estimate(context.Background(), req)
	if first.Err != nil {
		t.Fatal(first.Err)
	}
	if first.CacheHit {
		t.Fatal("first stratified request hit the cache")
	}
	second := e.Estimate(context.Background(), req)
	if second.Err != nil {
		t.Fatal(second.Err)
	}
	if !second.CacheHit {
		t.Error("identical stratified request missed the cache")
	}
	if second.Estimate.CF != first.Estimate.CF {
		t.Errorf("cached CF %v != computed %v", second.Estimate.CF, first.Estimate.CF)
	}
	req.Strata = 2
	third := e.Estimate(context.Background(), req)
	if third.Err != nil {
		t.Fatal(third.Err)
	}
	if third.CacheHit {
		t.Error("different strata count was answered from cache")
	}
	st := e.Stats()
	if st.StratifiedEstimates != 2 {
		t.Errorf("StratifiedEstimates = %d, want 2", st.StratifiedEstimates)
	}
	// One directory per strata count; the repeat reused the first build.
	if st.StrataDirBuilds != 2 {
		t.Errorf("StrataDirBuilds = %d, want 2", st.StrataDirBuilds)
	}
}

// TestStrataDirectoryReusedAcrossRequests pins the directory cache:
// stratified requests that miss the result cache (fresh seeds, fixed-r
// and adaptive alike) at one table version share a single stratify scan.
func TestStrataDirectoryReusedAcrossRequests(t *testing.T) {
	tab := testTable(t, "stratdir", 6000, 3)
	e := New(Config{Workers: 2})
	defer e.Close()
	// The precision cache keys on the codec, not the seed: each adaptive
	// ask names its own codec so none is answered by dominance.
	for seed, name := range []string{"rle", "nullsuppression", "pagedict+ns"} {
		for _, req := range []Request{
			{Table: tab, Codec: codec(t, name), SampleRows: 400, Seed: uint64(seed), Strata: 4},
			{Table: tab, Codec: codec(t, name), TargetError: 0.05, Seed: uint64(seed), Strata: 4},
		} {
			if res := e.Estimate(context.Background(), req); res.Err != nil || res.CacheHit {
				t.Fatalf("%s: err=%v hit=%v, want a computed estimate", name, res.Err, res.CacheHit)
			}
		}
	}
	if builds := e.Stats().StrataDirBuilds; builds != 1 {
		t.Errorf("StrataDirBuilds = %d over six misses at one table version, want 1", builds)
	}
}

// TestStrataDirectoryCacheByteBudget: the directory cache is bounded by
// index bytes (4 per table row), not entries. After many distinct key lists
// the resident directories fit the budget, and Stats and the gauge report
// the resident bytes.
func TestStrataDirectoryCacheByteBudget(t *testing.T) {
	off := New(Config{CacheEntries: -1})
	off.Close()
	if got := off.strataDirs.capacity; got != 0 {
		t.Errorf("disabled caches: directory budget = %d, want 0", got)
	}
	const n = 2000
	tab := testTable(t, "dirbudget", n, 5)
	e := New(Config{Workers: 2})
	defer e.Close()
	if got := e.strataDirs.capacity; got != strataDirBudget {
		t.Fatalf("directory budget = %d, want %d", got, strataDirBudget)
	}
	const budget = 5 * 4 * n
	e.strataDirs = newStrataCache(budget)
	for strata := 2; strata < 32; strata++ {
		res := e.Estimate(context.Background(), Request{
			Table: tab, Codec: codec(t, "nullsuppression"), SampleRows: 200, Seed: 1, Strata: strata,
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	st := e.Stats()
	if st.StrataDirBuilds != 30 {
		t.Errorf("StrataDirBuilds = %d, want 30 distinct builds", st.StrataDirBuilds)
	}
	if st.StrataDirBytes > budget || e.strataDirs.Len() != 5 {
		t.Errorf("resident: %d B in %d directories, want ≤ %d B in 5", st.StrataDirBytes, e.strataDirs.Len(), budget)
	}
	if v, ok := e.Registry().Value(MetricStrataDirBytes); !ok || v != float64(st.StrataDirBytes) {
		t.Errorf("gauge = %v (%v), want Stats' %d", v, ok, st.StrataDirBytes)
	}
}

// TestStrataDirectoryOverBudgetStaysAlone: a directory larger than the
// whole budget is still cached, alone, and serves its repeat requests.
func TestStrataDirectoryOverBudgetStaysAlone(t *testing.T) {
	const n = 3000
	tab := testTable(t, "dirhuge", n, 6)
	e := New(Config{Workers: 2, CacheEntries: -1})
	defer e.Close()
	e.strataDirs = newStrataCache(4*n - 1)
	for i, strata := range []int{4, 8, 8} {
		res := e.Estimate(context.Background(), Request{
			Table: tab, Codec: codec(t, "rle"), SampleRows: 300, Seed: uint64(i), Strata: strata,
		})
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if got := e.strataDirs.Len(); got != 1 {
			t.Fatalf("request %d: %d directories resident, want 1", i, got)
		}
		if got := e.Stats().StrataDirBytes; got != 4*n {
			t.Fatalf("request %d: %d B resident, want %d", i, got, 4*n)
		}
	}
	if builds := e.Stats().StrataDirBuilds; builds != 2 {
		t.Errorf("StrataDirBuilds = %d, want 2: the repeat must reuse the lone resident directory", builds)
	}
}

// TestStratifiedAdaptiveConverges runs the precision-targeted stratified
// loop end to end on a skewed table and checks the dominance cache answers
// the repeat ask.
func TestStratifiedAdaptiveConverges(t *testing.T) {
	tab := testTable(t, "stratadapt", 20000, 17)
	e := New(Config{Workers: 2})
	defer e.Close()
	req := Request{
		Table: tab, Codec: codec(t, "rle"), Seed: 1,
		Strata: 8, TargetError: 0.04,
	}
	res := e.Estimate(context.Background(), req)
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: achieved %v", res.AchievedError)
	}
	if res.AchievedError > req.TargetError {
		t.Errorf("achieved %v > target %v", res.AchievedError, req.TargetError)
	}
	if res.CacheHit {
		t.Error("first adaptive request hit the precision cache")
	}
	again := e.Estimate(context.Background(), req)
	if again.Err != nil {
		t.Fatal(again.Err)
	}
	if !again.CacheHit {
		t.Error("repeat adaptive ask missed the precision cache")
	}
	// Dominance must not cross strata settings: the same ask unstratified
	// is a different estimand family and recomputes.
	req.Strata = 0
	plain := e.Estimate(context.Background(), req)
	if plain.Err != nil {
		t.Fatal(plain.Err)
	}
	if plain.CacheHit {
		t.Error("unstratified ask was answered from a stratified precision entry")
	}
}

// TestShardedStratifiedComposes checks strata compose with shard scatter:
// each shard stratifies independently and the flat shard×stratum arm set
// merges into one sane whole-table estimate, on both the fixed and the
// adaptive path.
func TestShardedStratifiedComposes(t *testing.T) {
	d := db.New(0)
	st := liveShardedTable(t, d, "stratshard", 4, 3000)
	e := New(Config{Workers: 2})
	defer e.Close()

	base := e.Estimate(context.Background(), Request{
		Table: st, Codec: codec(t, "rle"), SampleRows: 1200, Seed: 7,
	})
	if base.Err != nil {
		t.Fatal(base.Err)
	}
	fixed := e.Estimate(context.Background(), Request{
		Table: st, Codec: codec(t, "rle"), SampleRows: 1200, Seed: 7, Strata: 4,
	})
	if fixed.Err != nil {
		t.Fatal(fixed.Err)
	}
	if fixed.Estimate.CF <= 0 || fixed.Estimate.CF >= 1 {
		t.Errorf("sharded stratified CF %v outside (0,1)", fixed.Estimate.CF)
	}
	if diff := fixed.Estimate.CF - base.Estimate.CF; diff > 0.15 || diff < -0.15 {
		t.Errorf("sharded stratified CF %v far from scatter CF %v", fixed.Estimate.CF, base.Estimate.CF)
	}
	// The stratified sample covers every shard×stratum cell at least once.
	if fixed.Estimate.SampleRows < 1200 {
		t.Errorf("sampled %d rows, want >= 1200", fixed.Estimate.SampleRows)
	}

	adaptive := e.Estimate(context.Background(), Request{
		Table: st, Codec: codec(t, "rle"), Seed: 7, Strata: 2, TargetError: 0.05,
	})
	if adaptive.Err != nil {
		t.Fatal(adaptive.Err)
	}
	if !adaptive.Converged {
		t.Errorf("sharded stratified adaptive did not converge: achieved %v", adaptive.AchievedError)
	}
}

// TestStratifiedObsInstruments checks the stratified ledgers move: the
// estimates counter, the directory-build counter, the strata-count
// histogram, and at least one rows-per-stratum child.
func TestStratifiedObsInstruments(t *testing.T) {
	reg := obs.NewRegistry()
	tab := testTable(t, "stratobs", 6000, 23)
	e := New(Config{Workers: 2, Metrics: reg})
	defer e.Close()
	res := e.Estimate(context.Background(), Request{
		Table: tab, Codec: codec(t, "rle"), SampleRows: 400, Seed: 5, Strata: 4,
	})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if v, _ := reg.Value(MetricStratified); v != 1 {
		t.Errorf("%s = %v, want 1", MetricStratified, v)
	}
	if v, _ := reg.Value(MetricStrataDirBuilds); v != 1 {
		t.Errorf("%s = %v, want 1", MetricStrataDirBuilds, v)
	}
	if e.strataCountHist.Count() != 1 {
		t.Errorf("strata-count histogram has %d observations, want 1", e.strataCountHist.Count())
	}
	if rows := e.strataRows.With("0").Value(); rows == 0 {
		t.Error("stratum 0 drew no instrumented rows")
	}
	var total uint64
	for h := 0; h < 4; h++ {
		total += e.strataRows.With(string(rune('0' + h))).Value()
	}
	if total != uint64(res.Estimate.SampleRows) {
		t.Errorf("rows-per-stratum ledger totals %d, estimate sampled %d", total, res.Estimate.SampleRows)
	}
}

// TestStratifiedValidation rejects malformed strata counts.
func TestStratifiedValidation(t *testing.T) {
	tab := testTable(t, "stratbad", 1000, 1)
	e := New(Config{Workers: 1})
	defer e.Close()
	res := e.Estimate(context.Background(), Request{
		Table: tab, Codec: codec(t, "rle"), SampleRows: 100, Strata: -2,
	})
	if res.Err == nil || !strings.Contains(res.Err.Error(), "strata") {
		t.Fatalf("negative strata accepted: %v", res.Err)
	}
}
