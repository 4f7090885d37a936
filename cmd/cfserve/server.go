package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"net/http/pprof"
	"time"

	"samplecf/internal/catalog"
	"samplecf/internal/compress"
	"samplecf/internal/db"
	"samplecf/internal/engine"
	"samplecf/internal/obs"
	"samplecf/internal/physdesign"
)

// defaultMaxTableRows bounds POST /tables materialization: registered
// tables live in memory for the life of the service, so an unbounded n in
// a 200-byte request body must not be able to OOM it.
const defaultMaxTableRows = 10_000_000

// server holds the estimation engine, the live database, and the table
// catalog behind the HTTP handlers. The catalog registers immutable
// synthetic tables and live db-backed tables side by side — estimation
// endpoints do not care which is which, because the engine keys
// everything on (instance id, version epoch). All state is safe for
// concurrent requests: the catalog, engine, and database are
// concurrency-safe by construction.
type server struct {
	eng *engine.Engine
	db  *db.Database
	cat *catalog.Catalog

	// registry is the engine's obs registry: the server's HTTP instruments
	// register alongside the engine's, and GET /metrics serves both it and
	// the process-wide default registry.
	registry *obs.Registry
	// logger receives the access log and slow-request dumps. Defaults to
	// discard; main wires a real handler.
	logger *slog.Logger
	// slowTrace is the slow-request threshold: requests taking at least
	// this long dump their span tree as structured trace JSON to the log
	// (0 disables; the -slow-trace flag sets it).
	slowTrace time.Duration

	// shardCount and shardEpoch are per-table gauges refreshed at scrape
	// time from the catalog: shard fan-out per sharded table, and the
	// version epoch of each shard (labeled "table/shard").
	shardCount *obs.GaugeVec
	shardEpoch *obs.GaugeVec

	// maxTableRows caps the n of a registered table (default
	// defaultMaxTableRows; the -max-rows flag overrides).
	maxTableRows int64

	// maxInflight caps concurrently served non-ops requests; excess
	// requests get an immediate 503 with Retry-After (0 = unlimited; the
	// -max-inflight flag sets it). See admission.go.
	maxInflight int

	// pprofMode gates /debug/pprof/: "local" (default) serves profiles to
	// loopback clients only, "all" to anyone, "off" not at all.
	pprofMode string

	// allowPartial is the service-wide degraded-serving default (the
	// -allow-partial flag): when set, every estimate request tolerates
	// partial shard failures unless it says otherwise. A request's own
	// allow_partial:true still opts in per call when the flag is off.
	allowPartial bool

	started time.Time
}

func newServer(eng *engine.Engine) *server {
	reg := eng.Registry()
	return &server{
		eng:      eng,
		db:       db.New(0),
		cat:      catalog.New(),
		registry: reg,
		logger:   slog.New(slog.DiscardHandler),
		shardCount: reg.GaugeVec("samplecf_table_shards",
			"Shard fan-out of each sharded table.", "table"),
		shardEpoch: reg.GaugeVec("samplecf_table_shard_epoch",
			"Version epoch of each shard, labeled table/shard.", "shard"),
		maxTableRows: defaultMaxTableRows,
		started:      time.Now(),
	}
}

// refreshShardGauges re-reads every sharded table's shard count and
// per-shard epochs into the gauge vectors. Called at scrape time
// (/metrics, /stats) so the exposition reflects the current catalog
// without mutation hooks. Entries for dropped tables keep their last
// value — gauge families are append-only — which scrapers tolerate.
func (s *server) refreshShardGauges() {
	for _, name := range s.cat.Names() {
		t, ok := s.cat.Lookup(name)
		if !ok {
			continue
		}
		sh, ok := t.(catalog.Sharded)
		if !ok {
			continue
		}
		s.shardCount.With(name).Set(int64(sh.NumShards()))
		for i, e := range sh.EpochVector() {
			s.shardEpoch.With(fmt.Sprintf("%s/%d", name, i)).Set(int64(e))
		}
	}
}

// handler builds the route table, wrapped in the observability middleware
// (request IDs, tracing, HTTP metrics, access log, Server-Timing).
func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /codecs", s.handleCodecs)
	mux.HandleFunc("GET /tables", s.handleListTables)
	mux.HandleFunc("POST /tables", s.handleCreateTable)
	mux.HandleFunc("POST /tables/{table}/rows", s.handleInsertRows)
	mux.HandleFunc("DELETE /tables/{table}/rows", s.handleDeleteRows)
	mux.HandleFunc("DELETE /tables/{table}", s.handleDropTable)
	mux.HandleFunc("POST /estimate", s.handleEstimate)
	mux.HandleFunc("POST /whatif", s.handleWhatIf)
	mux.HandleFunc("POST /advise", s.handleAdvise)
	s.mountPprof(mux)
	return s.middleware(s.admission(mux))
}

// mountPprof exposes the runtime profiler under /debug/pprof/ so hot-path
// CPU and allocation profiles can be captured from a running service
// (`go tool pprof http://host:port/debug/pprof/profile`). Access follows
// s.pprofMode: profiles reveal internals, so the default only answers
// clients connecting from a loopback address.
func (s *server) mountPprof(mux *http.ServeMux) {
	mode := s.pprofMode
	if mode == "" {
		mode = "local"
	}
	if mode == "off" {
		return
	}
	guard := func(h http.HandlerFunc) http.HandlerFunc {
		if mode == "all" {
			return h
		}
		return func(w http.ResponseWriter, r *http.Request) {
			host, _, err := net.SplitHostPort(r.RemoteAddr)
			if err != nil || !net.ParseIP(host).IsLoopback() {
				http.Error(w, "pprof is limited to loopback clients (run with -pprof all to open it)", http.StatusForbidden)
				return
			}
			h(w, r)
		}
	}
	mux.HandleFunc("GET /debug/pprof/", guard(pprof.Index))
	mux.HandleFunc("GET /debug/pprof/cmdline", guard(pprof.Cmdline))
	mux.HandleFunc("GET /debug/pprof/profile", guard(pprof.Profile))
	mux.HandleFunc("GET /debug/pprof/symbol", guard(pprof.Symbol))
	mux.HandleFunc("GET /debug/pprof/trace", guard(pprof.Trace))
}

// register adds a table to the catalog (used by handlers and -demo).
func (s *server) register(t engine.Table) error {
	return s.cat.Register(t)
}

// lookup resolves a registered table.
func (s *server) lookup(name string) (engine.Table, error) {
	t, ok := s.cat.Lookup(name)
	if !ok {
		return nil, fmt.Errorf("no table %q (register it via POST /tables)", name)
	}
	return t, nil
}

// lookupLive resolves a registered table that supports mutation (plain or
// sharded db-backed tables).
func (s *server) lookupLive(name string) (liveTable, error) {
	t, err := s.lookup(name)
	if err != nil {
		return nil, err
	}
	live, ok := t.(liveTable)
	if !ok {
		return nil, fmt.Errorf("table %q is immutable (create it with \"live\": true to mutate)", name)
	}
	return live, nil
}

// --- wire types ---------------------------------------------------------------

// candidateJSON is one (columns, codec) what-if candidate.
type candidateJSON struct {
	Name    string   `json:"name,omitempty"`
	Columns []string `json:"columns,omitempty"`
	Codec   string   `json:"codec,omitempty"` // empty = uncompressed (advise only)
}

type estimateRequestJSON struct {
	Table      string   `json:"table"`
	Columns    []string `json:"columns,omitempty"`
	Codec      string   `json:"codec"`
	Fraction   float64  `json:"fraction,omitempty"`
	SampleRows int64    `json:"sample_rows,omitempty"`
	Seed       uint64   `json:"seed,omitempty"`
	PageSize   int      `json:"page_size,omitempty"`
	// Stratified sampling: strata cuts the index key domain into up to that
	// many ranges, each sampled by its own stream (0 disables; 1 is the
	// degenerate single stratum). Composes with target_error: the adaptive
	// loop then refines the strata whose variance contribution dominates.
	Strata int `json:"strata,omitempty"`
	// Adaptive estimation: targetError asks for CF within ±targetError at
	// the given confidence (default 0.95), spending at most maxSampleRows
	// (default: the table size). fraction/sample_rows then seed only the
	// first round.
	TargetError   float64 `json:"target_error,omitempty"`
	Confidence    float64 `json:"confidence,omitempty"`
	MaxSampleRows int64   `json:"max_sample_rows,omitempty"`
	// AllowPartial tolerates shard failures on partitioned tables: the
	// estimate is merged from the surviving shards with renormalized
	// stratified weights and marked degraded, instead of failing the
	// request. Ignored on unsharded tables.
	AllowPartial bool `json:"allow_partial,omitempty"`
	// TimeoutMS bounds the estimation; exceeding it answers 504.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

type estimateResultJSON struct {
	Columns           []string `json:"columns,omitempty"`
	Codec             string   `json:"codec,omitempty"`
	CF                float64  `json:"cf"`
	SavingsPct        float64  `json:"savings_pct"`
	SampleRows        int64    `json:"sample_rows"`
	SampleDistinct    int64    `json:"sample_distinct"`
	CompressedBytes   int64    `json:"compressed_bytes"`
	UncompressedBytes int64    `json:"uncompressed_bytes"`
	CacheHit          bool     `json:"cache_hit"`
	SharedSample      bool     `json:"shared_sample,omitempty"`
	// Adaptive-request outcome: the achieved CI half-width, rounds run,
	// and whether the target was met within the row budget (absent on
	// fixed-r requests).
	AchievedError float64 `json:"achieved_error,omitempty"`
	Rounds        int     `json:"rounds,omitempty"`
	Converged     *bool   `json:"converged,omitempty"`
	// Degraded serving: the estimate was merged from the surviving shards
	// after shards_failed failed persistently (allow_partial requests
	// only); achieved_error then carries the widened CI half-width over
	// the survivors. Stale marks a last-good estimate served while the
	// table's circuit breaker was open.
	Degraded     bool   `json:"degraded,omitempty"`
	ShardsFailed []int  `json:"shards_failed,omitempty"`
	Stale        bool   `json:"stale,omitempty"`
	Error        string `json:"error,omitempty"`
}

type whatIfRequestJSON struct {
	Table      string          `json:"table"`
	Candidates []candidateJSON `json:"candidates"`
	Fraction   float64         `json:"fraction,omitempty"`
	SampleRows int64           `json:"sample_rows,omitempty"`
	Seed       uint64          `json:"seed,omitempty"`
	PageSize   int             `json:"page_size,omitempty"`
	TimeoutMS  int64           `json:"timeout_ms,omitempty"`
	// Stratified sampling (applies to every candidate): see /estimate.
	Strata int `json:"strata,omitempty"`
	// Adaptive estimation (applies to every candidate): see /estimate.
	TargetError   float64 `json:"target_error,omitempty"`
	Confidence    float64 `json:"confidence,omitempty"`
	MaxSampleRows int64   `json:"max_sample_rows,omitempty"`
	// Degraded serving (applies to every candidate): see /estimate.
	AllowPartial bool `json:"allow_partial,omitempty"`
}

// queryJSON is one workload statement in an /advise request.
type queryJSON struct {
	Name        string   `json:"name,omitempty"`
	Columns     []string `json:"columns"`
	Weight      float64  `json:"weight"`
	Selectivity float64  `json:"selectivity"`
}

type adviseRequestJSON struct {
	Table       string          `json:"table"`
	Candidates  []candidateJSON `json:"candidates"`
	Queries     []queryJSON     `json:"queries"`
	BudgetBytes int64           `json:"budget_bytes"`
	Fraction    float64         `json:"fraction,omitempty"`
	Seed        uint64          `json:"seed,omitempty"`
	TimeoutMS   int64           `json:"timeout_ms,omitempty"`
	// Adaptive coarse-to-fine sizing: candidates are screened at a loose
	// precision (coarse_error, default 4×target_error) and only the ones
	// still able to win their index-key group are refined to target_error.
	TargetError   float64 `json:"target_error,omitempty"`
	CoarseError   float64 `json:"coarse_error,omitempty"`
	Confidence    float64 `json:"confidence,omitempty"`
	MaxSampleRows int64   `json:"max_sample_rows,omitempty"`
}

// defaultFraction applies the service-wide sampling default of 1%.
// Adaptive requests (targetError > 0) keep a zero fraction: the adaptive
// loop picks its own starting size and a 1% default would force an
// oversized first round.
func defaultFraction(f, targetError float64) float64 {
	if f == 0 && targetError == 0 {
		return 0.01
	}
	return f
}

// --- handlers -----------------------------------------------------------------

func (s *server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status": "ok",
		"uptime": time.Since(s.started).String(),
	})
}

// statsFields is the /stats compatibility shim: the legacy JSON contract's
// field names mapped onto the registry metrics they are now derived from.
// The engine's counters live solely on the obs registry; /stats is a
// re-keyed read of the same instruments, so the two endpoints can never
// disagree. Renaming either side is an API break — a regression test pins
// the JSON names.
var statsFields = []struct {
	json   string
	metric string
}{
	{"cache_hits", engine.MetricCacheHits},
	{"cache_misses", engine.MetricCacheMisses},
	{"cache_evictions", engine.MetricCacheEvictions},
	{"cache_entries", engine.MetricCacheEntries},
	{"samples_drawn", engine.MetricSamplesDrawn},
	{"samples_shared", engine.MetricSamplesShared},
	{"maintained_hits", engine.MetricMaintainedHits},
	{"maintained_stale", engine.MetricMaintainedStale},
	{"indexes_prepared", engine.MetricIndexesPrepared},
	{"evaluated", engine.MetricEvaluated},
	{"precision_hits", engine.MetricPrecisionHits},
	{"coalesced_waits", engine.MetricCoalescedWaits},
	{"shard_scatters", engine.MetricShardScatters},
	{"shard_cache_hits", engine.MetricShardHits},
	{"shard_cache_misses", engine.MetricShardMisses},
	{"stratified_estimates", engine.MetricStratified},
	{"strata_directory_builds", engine.MetricStrataDirBuilds},
	{"strata_directory_bytes", engine.MetricStrataDirBytes},
	{"adaptive_rounds", engine.MetricAdaptiveRounds},
	{"adaptive_rows", engine.MetricAdaptiveRows},
	{"prepare_nanos", engine.MetricPrepareNanos},
	{"sort_rows", engine.MetricSortRows},
	{"panics_recovered", engine.MetricPanicsRecovered},
	{"shard_retries", engine.MetricShardRetries},
	{"degraded_results", engine.MetricDegradedResults},
	{"stale_served", engine.MetricStaleServed},
	{"breaker_opens", engine.MetricBreakerOpens},
}

func (s *server) handleStats(w http.ResponseWriter, _ *http.Request) {
	s.refreshShardGauges()
	out := make(map[string]any, len(statsFields)+2)
	for _, f := range statsFields {
		v, _ := s.registry.Value(f.metric)
		out[f.json] = uint64(v)
	}
	out["tables"] = s.cat.Len()
	// Per-shard view of every sharded table: fan-out and epoch vector.
	sharded := map[string]any{}
	for _, name := range s.cat.Names() {
		if t, ok := s.cat.Lookup(name); ok {
			if sh, ok := t.(catalog.Sharded); ok {
				sharded[name] = map[string]any{
					"shards":       sh.NumShards(),
					"shard_epochs": sh.EpochVector(),
				}
			}
		}
	}
	if len(sharded) > 0 {
		out["sharded_tables"] = sharded
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *server) handleCodecs(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"codecs": compress.Names()})
}

func (s *server) handleListTables(w http.ResponseWriter, _ *http.Request) {
	type info struct {
		Name        string   `json:"name"`
		Rows        int64    `json:"rows"`
		Columns     []string `json:"columns"`
		Epoch       uint64   `json:"epoch"`
		Live        bool     `json:"live"`
		Shards      int      `json:"shards,omitempty"`
		ShardEpochs []uint64 `json:"shard_epochs,omitempty"`
	}
	names := s.cat.Names() // sorted
	out := make([]info, 0, len(names))
	for _, name := range names {
		t, ok := s.cat.Lookup(name)
		if !ok { // dropped between Names and Lookup
			continue
		}
		cols := make([]string, 0, t.Schema().NumColumns())
		for _, c := range t.Schema().Columns() {
			cols = append(cols, c.Name)
		}
		_, live := t.(liveTable)
		row := info{Name: t.Name(), Rows: t.NumRows(), Columns: cols, Epoch: t.Epoch(), Live: live}
		if sh, ok := t.(catalog.Sharded); ok {
			row.Shards = sh.NumShards()
			row.ShardEpochs = sh.EpochVector()
		}
		out = append(out, row)
	}
	writeJSON(w, http.StatusOK, map[string]any{"tables": out})
}

func (s *server) handleCreateTable(w http.ResponseWriter, r *http.Request) {
	var spec tableSpecJSON
	if !decodeJSON(w, r, &spec) {
		return
	}
	if spec.N > s.maxTableRows {
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("table %q: n %d exceeds the per-table limit of %d rows", spec.Name, spec.N, s.maxTableRows))
		return
	}
	var t engine.Table
	var err error
	switch {
	case spec.Shards > 0 && !spec.Live:
		httpError(w, http.StatusBadRequest,
			fmt.Errorf("table %q: sharding requires \"live\": true", spec.Name))
		return
	case spec.Shards > 0:
		t, err = s.buildLiveShardedTable(spec)
	case spec.Live:
		t, err = s.buildLiveTable(spec)
	default:
		t, err = buildTable(spec)
	}
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	if err := s.register(t); err != nil {
		if spec.Live {
			_ = s.db.DropTable(spec.Name)
		}
		httpError(w, http.StatusConflict, err)
		return
	}
	out := map[string]any{
		"table": t.Name(),
		"rows":  t.NumRows(),
		"epoch": t.Epoch(),
		"live":  spec.Live,
	}
	if sh, ok := t.(catalog.Sharded); ok {
		out["shards"] = sh.NumShards()
		out["shard_epochs"] = sh.EpochVector()
	}
	writeJSON(w, http.StatusCreated, out)
}

func (s *server) handleEstimate(w http.ResponseWriter, r *http.Request) {
	var req estimateRequestJSON
	if !decodeJSON(w, r, &req) {
		return
	}
	tab, err := s.lookup(req.Table)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	codec, err := compress.Lookup(req.Codec)
	if err != nil {
		httpError(w, http.StatusBadRequest, err)
		return
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	res := s.eng.Estimate(ctx, engine.Request{
		Table:         tab,
		KeyColumns:    req.Columns,
		Codec:         codec,
		Fraction:      defaultFraction(req.Fraction, req.TargetError),
		SampleRows:    req.SampleRows,
		Seed:          req.Seed,
		PageSize:      req.PageSize,
		Strata:        req.Strata,
		TargetError:   req.TargetError,
		Confidence:    req.Confidence,
		MaxSampleRows: req.MaxSampleRows,
		AllowPartial:  req.AllowPartial || s.allowPartial,
	})
	if res.Err != nil {
		httpError(w, statusFor(res.Err), res.Err)
		return
	}
	writeJSON(w, http.StatusOK, toResultJSON(req.Columns, req.Codec, res))
}

// statusFor maps an engine error onto the HTTP status that tells the
// client what to do about it: fix the request (400), retry later with the
// breaker open (503), retry with a longer budget (504), or report a bug
// (500 — including recovered panics, which arrive as ordinary errors
// carrying the failure's stack).
func statusFor(err error) int {
	switch {
	case errors.Is(err, engine.ErrInvalidRequest):
		return http.StatusBadRequest
	case errors.Is(err, engine.ErrBreakerOpen):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return http.StatusGatewayTimeout
	default:
		return http.StatusInternalServerError
	}
}

func (s *server) handleWhatIf(w http.ResponseWriter, r *http.Request) {
	var req whatIfRequestJSON
	if !decodeJSON(w, r, &req) {
		return
	}
	if len(req.Candidates) == 0 {
		httpError(w, http.StatusBadRequest, fmt.Errorf("candidates are required"))
		return
	}
	tab, err := s.lookup(req.Table)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	reqs := make([]engine.Request, len(req.Candidates))
	for i, c := range req.Candidates {
		codec, err := compress.Lookup(c.Codec)
		if err != nil {
			httpError(w, http.StatusBadRequest, fmt.Errorf("candidate %d: %w", i, err))
			return
		}
		reqs[i] = engine.Request{
			Table:         tab,
			KeyColumns:    c.Columns,
			Codec:         codec,
			Fraction:      defaultFraction(req.Fraction, req.TargetError),
			SampleRows:    req.SampleRows,
			Seed:          req.Seed,
			PageSize:      req.PageSize,
			Strata:        req.Strata,
			TargetError:   req.TargetError,
			Confidence:    req.Confidence,
			MaxSampleRows: req.MaxSampleRows,
			AllowPartial:  req.AllowPartial || s.allowPartial,
		}
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	start := time.Now()
	results := s.eng.WhatIf(ctx, reqs)
	out := make([]estimateResultJSON, len(results))
	for i, res := range results {
		out[i] = toResultJSON(req.Candidates[i].Columns, req.Candidates[i].Codec, res)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"table":       req.Table,
		"results":     out,
		"duration_ms": float64(time.Since(start).Microseconds()) / 1000,
	})
}

func (s *server) handleAdvise(w http.ResponseWriter, r *http.Request) {
	var req adviseRequestJSON
	if !decodeJSON(w, r, &req) {
		return
	}
	tab, err := s.lookup(req.Table)
	if err != nil {
		httpError(w, http.StatusNotFound, err)
		return
	}
	cands := make([]physdesign.Candidate, len(req.Candidates))
	for i, c := range req.Candidates {
		name := c.Name
		if name == "" {
			name = fmt.Sprintf("candidate-%d", i)
		}
		var codec compress.Codec
		if c.Codec != "" {
			codec, err = compress.Lookup(c.Codec)
			if err != nil {
				httpError(w, http.StatusBadRequest, fmt.Errorf("candidate %q: %w", name, err))
				return
			}
		}
		cands[i] = physdesign.Candidate{Name: name, Table: tab, KeyColumns: c.Columns, Codec: codec}
	}
	ctx := r.Context()
	if req.TimeoutMS > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMS)*time.Millisecond)
		defer cancel()
	}
	queries := make([]physdesign.Query, len(req.Queries))
	for i, q := range req.Queries {
		queries[i] = physdesign.Query{Name: q.Name, Columns: q.Columns, Weight: q.Weight, Selectivity: q.Selectivity}
	}
	rec, err := physdesign.Recommend(cands, queries, req.BudgetBytes, physdesign.Options{
		SampleFraction: defaultFraction(req.Fraction, req.TargetError),
		Seed:           req.Seed,
		Engine:         s.eng,
		Context:        ctx,
		TargetError:    req.TargetError,
		CoarseError:    req.CoarseError,
		Confidence:     req.Confidence,
		MaxSampleRows:  req.MaxSampleRows,
	})
	if err != nil {
		httpError(w, http.StatusUnprocessableEntity, err)
		return
	}
	type chosenJSON struct {
		Name           string   `json:"name"`
		Columns        []string `json:"columns,omitempty"`
		Codec          string   `json:"codec,omitempty"`
		EstimatedCF    float64  `json:"estimated_cf"`
		EstimatedBytes int64    `json:"estimated_bytes"`
	}
	chosen := make([]chosenJSON, len(rec.Chosen))
	for i, c := range rec.Chosen {
		cj := chosenJSON{
			Name: c.Name, Columns: c.KeyColumns,
			EstimatedCF: c.EstimatedCF, EstimatedBytes: c.EstimatedBytes,
		}
		if c.Codec != nil {
			cj.Codec = c.Codec.Name()
		}
		chosen[i] = cj
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"chosen":        chosen,
		"total_bytes":   rec.TotalBytes,
		"total_benefit": rec.TotalBenefit,
		"rejected":      rec.Rejected,
	})
}

// toResultJSON converts one engine result to the wire form.
func toResultJSON(cols []string, codecName string, res engine.Result) estimateResultJSON {
	out := estimateResultJSON{Columns: cols, Codec: codecName}
	if res.Err != nil {
		out.Error = res.Err.Error()
		return out
	}
	est := res.Estimate
	out.CF = est.CF
	out.SavingsPct = (1 - est.CF) * 100
	out.SampleRows = est.SampleRows
	out.SampleDistinct = est.SampleDistinct
	out.CompressedBytes = est.Result.CompressedBytes
	out.UncompressedBytes = est.Result.UncompressedBytes
	out.CacheHit = res.CacheHit
	out.SharedSample = res.SharedSample
	if res.Rounds > 0 || res.AchievedError > 0 {
		out.AchievedError = res.AchievedError
		out.Rounds = res.Rounds
		converged := res.Converged
		out.Converged = &converged
	}
	if res.Degraded {
		out.Degraded = true
		out.ShardsFailed = res.ShardsFailed
		out.AchievedError = res.AchievedError
	}
	out.Stale = res.Stale
	return out
}

// --- JSON plumbing ------------------------------------------------------------

// decodeJSON parses the request body into v, rejecting unknown fields so
// typos in specs fail loudly. Returns false after writing the error.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}
