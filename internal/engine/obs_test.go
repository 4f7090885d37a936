package engine

import (
	"context"
	"strings"
	"testing"

	"samplecf/internal/obs"
)

// TestMetricsOnRegistry verifies the engine's counters live on the obs
// registry: an injected registry sees the cache/sample/stage ledgers move
// exactly as Stats() reports them, and the stage histograms record.
func TestMetricsOnRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	tab := testTable(t, "obsreg", 2000, 3)
	e := New(Config{Workers: 2, Metrics: reg})
	defer e.Close()

	req := Request{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "rle"), Fraction: 0.05, Seed: 1}
	if res := e.Estimate(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}
	if res := e.Estimate(context.Background(), req); res.Err != nil || !res.CacheHit {
		t.Fatalf("second estimate not a cache hit: %+v", res)
	}

	st := e.Stats()
	for _, tc := range []struct {
		metric string
		want   uint64
	}{
		{MetricCacheHits, st.Hits},
		{MetricCacheMisses, st.Misses},
		{MetricSamplesDrawn, st.SamplesDrawn},
		{MetricIndexesPrepared, st.IndexesPrepared},
		{MetricEvaluated, st.Evaluated},
		{MetricPrepareNanos, st.PrepareNanos},
		{MetricSortRows, st.SortRows},
	} {
		v, ok := reg.Value(tc.metric)
		if !ok {
			t.Fatalf("metric %s not registered", tc.metric)
		}
		if uint64(v) != tc.want {
			t.Errorf("%s = %v, registry disagrees with Stats %d", tc.metric, v, tc.want)
		}
	}
	if st.Hits != 1 || st.Misses != 1 || st.Evaluated != 1 {
		t.Fatalf("unexpected ledger: %+v", st)
	}
	if v, ok := reg.Value(MetricCacheEntries); !ok || v != 1 {
		t.Fatalf("cache entries gauge = %v,%v want 1", v, ok)
	}

	// The per-stage histograms must have observed the one evaluation.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, stage := range []string{stageDraw, stageSort, stageCompress} {
		want := MetricStageDuration + `_count{stage="` + stage + `"} 1`
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestPrivateRegistriesIndependent pins the default behavior: engines
// without Config.Metrics get private registries, so two engines never
// share ledgers.
func TestPrivateRegistriesIndependent(t *testing.T) {
	tab := testTable(t, "obspriv", 1500, 5)
	e1 := New(Config{Workers: 1})
	defer e1.Close()
	e2 := New(Config{Workers: 1})
	defer e2.Close()
	if e1.Registry() == e2.Registry() {
		t.Fatalf("engines shared a registry by default")
	}
	req := Request{Table: tab, KeyColumns: []string{"b"}, Codec: codec(t, "rle"), Fraction: 0.05, Seed: 2}
	if res := e1.Estimate(context.Background(), req); res.Err != nil {
		t.Fatal(res.Err)
	}
	if got := e2.Stats().Evaluated; got != 0 {
		t.Fatalf("engine 2 saw engine 1's evaluation: %d", got)
	}
}

// TestTraceThroughEngine threads a trace through Estimate and checks the
// stage tree records the fixed pipeline: draw, sort, compress, cache.
func TestTraceThroughEngine(t *testing.T) {
	tab := testTable(t, "obstrace", 2000, 9)
	e := New(Config{Workers: 2})
	defer e.Close()

	tr := obs.NewTrace("estimate")
	ctx := obs.WithTrace(context.Background(), tr)
	req := Request{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "prefix"), Fraction: 0.05, Seed: 4}
	if res := e.Estimate(ctx, req); res.Err != nil {
		t.Fatal(res.Err)
	}
	tr.Finish()

	seen := map[string]bool{}
	for _, s := range tr.Spans() {
		seen[s.Name] = true
		if s.Dur < 0 {
			t.Errorf("span %s has negative duration", s.Name)
		}
	}
	for _, want := range []string{stageDraw, stageSort, stageCompress, "cache"} {
		if !seen[want] {
			t.Errorf("trace missing stage %q (got %v)", want, seen)
		}
	}
}

// TestTraceAdaptiveRounds threads a trace through an adaptive request and
// checks the rounds stage records.
func TestTraceAdaptiveRounds(t *testing.T) {
	tab := testTable(t, "obsadapt", 4000, 11)
	e := New(Config{Workers: 2})
	defer e.Close()

	tr := obs.NewTrace("estimate")
	ctx := obs.WithTrace(context.Background(), tr)
	req := Request{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "rle"), TargetError: 0.05, Seed: 6}
	if res := e.Estimate(ctx, req); res.Err != nil {
		t.Fatal(res.Err)
	}
	tr.Finish()

	seen := map[string]bool{}
	for _, s := range tr.Spans() {
		seen[s.Name] = true
	}
	for _, want := range []string{stageDraw, stageSort, stageRounds} {
		if !seen[want] {
			t.Errorf("adaptive trace missing stage %q (got %v)", want, seen)
		}
	}
	if v, ok := e.Registry().Value(MetricAdaptiveRounds); !ok || v < 1 {
		t.Fatalf("adaptive rounds counter = %v,%v", v, ok)
	}
}

// TestQueueGaugesSettle checks the queue-depth and in-flight gauges return
// to zero after a batch drains.
func TestQueueGaugesSettle(t *testing.T) {
	tab := testTable(t, "obsgauge", 2000, 13)
	e := New(Config{Workers: 2})
	defer e.Close()

	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = Request{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "rle"),
			Fraction: 0.02, Seed: uint64(i)}
	}
	for _, res := range e.WhatIf(context.Background(), reqs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if v, _ := e.Registry().Value(MetricQueueDepth); v != 0 {
		t.Fatalf("queue depth %v after drain, want 0", v)
	}
	if v, _ := e.Registry().Value(MetricInFlight); v != 0 {
		t.Fatalf("in-flight %v after drain, want 0", v)
	}
}

// TestStrataTraceRecordsStratifyStage checks the strata-directory build is
// attributed: a stratified estimate that misses the directory cache records
// a stratify span and one stratify-stage observation, and a second request
// at the same table version, served by the cached directory, records
// neither.
func TestStrataTraceRecordsStratifyStage(t *testing.T) {
	reg := obs.NewRegistry()
	tab := testTable(t, "obsstrata", 4000, 21)
	e := New(Config{Workers: 2, Metrics: reg})
	defer e.Close()

	for seed, wantSpan := range []bool{true, false} {
		tr := obs.NewTrace("estimate")
		ctx := obs.WithTrace(context.Background(), tr)
		req := Request{Table: tab, KeyColumns: []string{"a"}, Codec: codec(t, "rle"),
			SampleRows: 400, Seed: uint64(seed), Strata: 4}
		if res := e.Estimate(ctx, req); res.Err != nil {
			t.Fatal(res.Err)
		}
		tr.Finish()
		seen := false
		for _, s := range tr.Spans() {
			seen = seen || s.Name == stageStratify
		}
		if seen != wantSpan {
			t.Errorf("request %d: stratify span recorded = %v, want %v", seed, seen, wantSpan)
		}
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	want := MetricStageDuration + `_count{stage="` + stageStratify + `"} 1`
	if !strings.Contains(sb.String(), want) {
		t.Errorf("exposition missing %q", want)
	}
	if builds := e.Stats().StrataDirBuilds; builds != 1 {
		t.Errorf("StrataDirBuilds = %d, want 1", builds)
	}
}
