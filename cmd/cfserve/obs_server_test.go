package main

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"samplecf/internal/engine"
)

// newObsTestServer is newTestServer with access to the underlying *server,
// for tests that tune the logger or slow-trace threshold.
func newObsTestServer(t *testing.T) (*httptest.Server, *server) {
	t.Helper()
	eng := engine.New(engine.Config{Workers: 4, CacheEntries: 64})
	t.Cleanup(eng.Close)
	srv := newServer(eng)
	spec := demoSpec()
	spec.N = 5000
	tab, err := buildTable(spec)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.register(tab); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return ts, srv
}

const obsEstimateBody = `{"table": "demo", "columns": ["region"], "codec": "rle", "fraction": 0.02, "seed": 7}`

// TestMetricsEndpoint drives one estimate through the engine and checks
// GET /metrics serves valid exposition: the right content type, HELP/TYPE
// pairs, the per-stage latency histograms, per-codec byte counters, and
// the HTTP families added by the middleware.
func TestMetricsEndpoint(t *testing.T) {
	ts, _ := newObsTestServer(t)
	var est estimateResultJSON
	if code := postJSON(t, ts.URL+"/estimate", obsEstimateBody, &est); code != http.StatusOK {
		t.Fatalf("estimate status %d", code)
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("metrics status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	for _, want := range []string{
		// Engine stage histograms: the estimate above must have recorded
		// the fixed pipeline stages.
		`samplecf_engine_stage_duration_seconds_count{stage="draw"} 1`,
		`samplecf_engine_stage_duration_seconds_count{stage="sort"} 1`,
		`samplecf_engine_stage_duration_seconds_count{stage="compress"} 1`,
		// Engine counters migrated from Stats.
		"# TYPE samplecf_engine_cache_misses_total counter",
		"samplecf_engine_cache_misses_total 1",
		// HTTP middleware families.
		`samplecf_http_requests_total{route="estimate"} 1`,
		`samplecf_http_request_duration_seconds_count{route="estimate"} 1`,
		// Default-registry pipeline metrics (per-codec byte counters from
		// internal/compress, rows drawn from internal/sampling).
		`samplecf_compress_uncompressed_bytes_total{codec="rle"}`,
		`samplecf_compress_compressed_bytes_total{codec="rle"}`,
		"samplecf_sampling_rows_drawn_total",
		"samplecf_sortkeys_rows_sorted_total",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every sample family carries HELP and TYPE.
	for _, fam := range []string{"samplecf_engine_cache_hits_total", "samplecf_http_requests_total"} {
		if !strings.Contains(out, "# HELP "+fam+" ") || !strings.Contains(out, "# TYPE "+fam+" ") {
			t.Errorf("missing HELP/TYPE for %s", fam)
		}
	}
}

// TestRequestIDPropagation covers the X-Request-ID contract: an inbound ID
// echoes back; absent or unacceptable IDs are replaced with generated ones.
func TestRequestIDPropagation(t *testing.T) {
	ts, _ := newObsTestServer(t)

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "caller-trace-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "caller-trace-42" {
		t.Fatalf("inbound request ID not propagated: %q", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	generated := resp.Header.Get("X-Request-ID")
	if len(generated) != 16 {
		t.Fatalf("generated request ID %q, want 16 hex chars", generated)
	}

	req, _ = http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", strings.Repeat("x", 100))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Fatalf("oversized inbound ID not replaced: %q", got)
	}
}

// TestServerTimingHeader checks estimate responses carry a Server-Timing
// header with the total and the engine stages.
func TestServerTimingHeader(t *testing.T) {
	ts, _ := newObsTestServer(t)
	resp, err := http.Post(ts.URL+"/estimate", "application/json", strings.NewReader(obsEstimateBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("estimate status %d", resp.StatusCode)
	}
	st := resp.Header.Get("Server-Timing")
	if !strings.HasPrefix(st, "total;dur=") {
		t.Fatalf("Server-Timing %q missing total", st)
	}
	// The estimate ran through the engine, so at least one pipeline stage
	// must appear after the total.
	if !strings.Contains(st, ", ") {
		t.Fatalf("Server-Timing %q reports no stages", st)
	}
	for _, part := range strings.Split(st, ", ") {
		if !strings.Contains(part, ";dur=") {
			t.Fatalf("Server-Timing entry %q malformed", part)
		}
	}
}

// TestAccessLog checks the slog access log carries the request identity.
func TestAccessLog(t *testing.T) {
	ts, srv := newObsTestServer(t)
	var buf bytes.Buffer
	srv.logger = slog.New(slog.NewJSONHandler(&buf, nil))

	req, _ := http.NewRequest("GET", ts.URL+"/stats", nil)
	req.Header.Set("X-Request-ID", "log-probe-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	var line struct {
		Msg       string `json:"msg"`
		RequestID string `json:"request_id"`
		Method    string `json:"method"`
		Path      string `json:"path"`
		Status    int    `json:"status"`
	}
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("access log not one JSON line: %v\n%s", err, buf.String())
	}
	if line.Msg != "request" || line.RequestID != "log-probe-1" ||
		line.Method != "GET" || line.Path != "/stats" || line.Status != 200 {
		t.Fatalf("access log line %+v", line)
	}
}

// TestSlowTraceDump sets a zero-distance slow threshold and checks the
// slow-request log line carries the structured trace JSON with the
// pipeline stage spans.
func TestSlowTraceDump(t *testing.T) {
	ts, srv := newObsTestServer(t)
	var buf bytes.Buffer
	srv.logger = slog.New(slog.NewJSONHandler(&buf, nil))
	srv.slowTrace = time.Nanosecond

	var est estimateResultJSON
	if code := postJSON(t, ts.URL+"/estimate", obsEstimateBody, &est); code != http.StatusOK {
		t.Fatalf("estimate status %d", code)
	}

	var slow struct {
		Msg   string `json:"msg"`
		Trace struct {
			Name    string `json:"name"`
			TotalNs int64  `json:"total_ns"`
			Spans   []struct {
				Name    string `json:"name"`
				Parent  int    `json:"parent"`
				StartNs int64  `json:"start_ns"`
				DurNs   int64  `json:"dur_ns"`
			} `json:"spans"`
		} `json:"trace"`
	}
	found := false
	for _, ln := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if err := json.Unmarshal([]byte(ln), &slow); err == nil && slow.Msg == "slow request" {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("no slow-request line in log:\n%s", buf.String())
	}
	if slow.Trace.Name != "POST /estimate" || slow.Trace.TotalNs <= 0 {
		t.Fatalf("trace doc %+v", slow.Trace)
	}
	seen := map[string]bool{}
	for _, sp := range slow.Trace.Spans {
		seen[sp.Name] = true
		if sp.DurNs < 0 || sp.StartNs < 0 {
			t.Errorf("span %+v has negative timing", sp)
		}
	}
	for _, stage := range []string{"draw", "sort", "compress"} {
		if !seen[stage] {
			t.Errorf("slow trace missing stage %q (got %v)", stage, seen)
		}
	}
}

// TestStatsShimFieldNames is the /stats regression test: the JSON contract
// predates the obs registry, so every legacy field must survive the
// re-derivation, and the values must agree with engine.Stats.
func TestStatsShimFieldNames(t *testing.T) {
	ts, srv := newObsTestServer(t)
	var est estimateResultJSON
	if code := postJSON(t, ts.URL+"/estimate", obsEstimateBody, &est); code != http.StatusOK {
		t.Fatalf("estimate status %d", code)
	}
	// Same request again: a cache hit, so hits and misses both move.
	if code := postJSON(t, ts.URL+"/estimate", obsEstimateBody, &est); code != http.StatusOK {
		t.Fatalf("estimate status %d", code)
	}

	var stats map[string]json.Number
	if code := getJSON(t, ts.URL+"/stats", &stats); code != http.StatusOK {
		t.Fatalf("stats status %d", code)
	}
	want := []string{
		"cache_hits", "cache_misses", "cache_evictions", "cache_entries",
		"samples_drawn", "samples_shared", "maintained_hits", "maintained_stale",
		"indexes_prepared", "evaluated", "precision_hits", "coalesced_waits",
		"shard_scatters", "shard_cache_hits", "shard_cache_misses",
		"stratified_estimates", "strata_directory_builds", "strata_directory_bytes",
		"adaptive_rounds", "adaptive_rows", "prepare_nanos", "sort_rows",
		"panics_recovered", "shard_retries", "degraded_results",
		"stale_served", "breaker_opens",
		"tables",
	}
	for _, field := range want {
		if _, ok := stats[field]; !ok {
			t.Errorf("/stats missing legacy field %q", field)
		}
	}
	if len(stats) != len(want) {
		t.Errorf("/stats has %d fields, want %d: %v", len(stats), len(want), stats)
	}

	st := srv.eng.Stats()
	for field, engineValue := range map[string]uint64{
		"cache_hits":             st.Hits,
		"cache_misses":           st.Misses,
		"samples_drawn":          st.SamplesDrawn,
		"evaluated":              st.Evaluated,
		"sort_rows":              st.SortRows,
		"cache_entries":          uint64(st.CacheEntries),
		"strata_directory_bytes": uint64(st.StrataDirBytes),
	} {
		got, err := stats[field].Int64()
		if err != nil {
			t.Fatalf("field %s: %v", field, err)
		}
		if uint64(got) != engineValue {
			t.Errorf("/stats %s = %d, engine.Stats says %d", field, got, engineValue)
		}
	}
	if hits, _ := stats["cache_hits"].Int64(); hits != 1 {
		t.Errorf("cache_hits = %d, want 1", hits)
	}
}
