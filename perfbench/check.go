package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"time"

	"samplecf/internal/compress"
	"samplecf/internal/core"
	"samplecf/internal/db"
	"samplecf/internal/engine"
	"samplecf/internal/physdesign"
	"samplecf/internal/value"
)

// catalogTable is what the in-process replay needs from a table: the
// engine's view plus the full scan core.TrueCF takes.
type catalogTable interface {
	engine.Table
	core.RowScanner
}

// replayer re-executes generated requests in-process the way cfserve's
// handlers do, on a fresh engine over tables built from the same specs.
type replayer struct {
	eng  *engine.Engine
	tabs map[string]catalogTable
}

func newReplayer(tabs map[string]catalogTable, workers int) *replayer {
	return &replayer{eng: engine.New(engine.Config{Workers: workers}), tabs: tabs}
}

func (rp *replayer) close() { rp.eng.Close() }

// replayed is one op's in-process outcome.
type replayed struct {
	results []engine.Result
	rec     *physdesign.Recommendation
	err     error
	dur     time.Duration // the engine (or advisor) call alone
}

// requests converts an estimation op into the engine requests cfserve's
// /whatif or /estimate handler builds from the same body.
func (rp *replayer) requests(o *op) ([]engine.Request, error) {
	mk := func(table string, cols []string, codec string, f float64, seed uint64, strata int, te, conf float64) (engine.Request, error) {
		c, err := compress.Lookup(codec)
		if err != nil {
			return engine.Request{}, err
		}
		if f == 0 && te == 0 {
			f = 0.01 // cfserve's default fraction
		}
		return engine.Request{
			Table: rp.tabs[table], KeyColumns: cols, Codec: c, Fraction: f, Seed: seed,
			Strata: strata, TargetError: te, Confidence: conf,
		}, nil
	}
	switch {
	case o.whatif != nil:
		r := o.whatif
		out := make([]engine.Request, len(r.Candidates))
		for i, c := range r.Candidates {
			req, err := mk(r.Table, c.Columns, c.Codec, r.Fraction, r.Seed, r.Strata, r.TargetError, r.Confidence)
			if err != nil {
				return nil, err
			}
			out[i] = req
		}
		return out, nil
	case o.est != nil:
		r := o.est
		req, err := mk(r.Table, r.Columns, r.Codec, r.Fraction, r.Seed, 0, r.TargetError, r.Confidence)
		return []engine.Request{req}, err
	}
	return nil, fmt.Errorf("op %s has no engine requests", o.Kind)
}

// adviseArgs converts an /advise op the way cfserve's handler does.
func (rp *replayer) adviseArgs(o *op) ([]physdesign.Candidate, []physdesign.Query, physdesign.Options, error) {
	r := o.advise
	tab := rp.tabs[r.Table]
	cs := make([]physdesign.Candidate, len(r.Candidates))
	for i, c := range r.Candidates {
		codec, err := compress.Lookup(c.Codec)
		if err != nil {
			return nil, nil, physdesign.Options{}, err
		}
		cs[i] = physdesign.Candidate{Name: c.Name, Table: tab, KeyColumns: c.Columns, Codec: codec}
	}
	qs := make([]physdesign.Query, len(r.Queries))
	for i, q := range r.Queries {
		qs[i] = physdesign.Query{Name: q.Name, Columns: q.Columns, Weight: q.Weight, Selectivity: q.Selectivity}
	}
	opts := physdesign.Options{
		Seed: r.Seed, Engine: rp.eng, Context: context.Background(),
		TargetError: r.TargetError, Confidence: r.Confidence,
	}
	return cs, qs, opts, nil
}

// rowOf converts a generated wire row into the payloads cfserve decodes
// from it.
func rowOf(wire []any) value.Row {
	row := make(value.Row, len(wire))
	for i, v := range wire {
		switch x := v.(type) {
		case string:
			row[i] = value.StringValue(x)
		case int64:
			row[i] = value.IntValue(int32(x))
		}
	}
	return row
}

// run executes one op in-process.
func (rp *replayer) run(o *op) replayed {
	switch o.Kind {
	case kindAdvise:
		cs, qs, opts, err := rp.adviseArgs(o)
		if err != nil {
			return replayed{err: err}
		}
		t0 := time.Now()
		rec, err := physdesign.Recommend(cs, qs, o.advise.BudgetBytes, opts)
		return replayed{rec: &rec, err: err, dur: time.Since(t0)}
	case kindInsert:
		st := rp.tabs[routeTable(o.Route)].(*db.ShardedTable)
		t0 := time.Now()
		for _, w := range o.insert.Rows {
			if _, err := st.Insert(rowOf(w)); err != nil {
				return replayed{err: err}
			}
		}
		return replayed{dur: time.Since(t0)}
	}
	reqs, err := rp.requests(o)
	if err != nil {
		return replayed{err: err}
	}
	t0 := time.Now()
	res := rp.eng.WhatIf(context.Background(), reqs)
	return replayed{results: res, dur: time.Since(t0)}
}

// resultJSON is the part of a cfserve estimate result the checks read.
type resultJSON struct {
	CF            float64 `json:"cf"`
	SampleRows    int64   `json:"sample_rows"`
	AchievedError float64 `json:"achieved_error"`
	Rounds        int     `json:"rounds"`
	Converged     *bool   `json:"converged"`
	Error         string  `json:"error"`
}

// parseResults decodes a /whatif or /estimate body into per-candidate
// results.
func parseResults(o *op, body []byte) ([]resultJSON, error) {
	if o.Kind == kindEstimate {
		var r resultJSON
		if err := json.Unmarshal(body, &r); err != nil {
			return nil, err
		}
		return []resultJSON{r}, nil
	}
	var w struct {
		Results []resultJSON `json:"results"`
	}
	if err := json.Unmarshal(body, &w); err != nil {
		return nil, err
	}
	if len(w.Results) != len(o.whatif.Candidates) {
		return nil, fmt.Errorf("%d results for %d candidates", len(w.Results), len(o.whatif.Candidates))
	}
	return w.Results, nil
}

// checkExact requires every answer to equal the in-process recomputation
// bit for bit: same cf, same sample_rows, no per-candidate error.
func checkExact(got []resultJSON, want []engine.Result) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d answers, recomputed %d", len(got), len(want))
	}
	for i, g := range got {
		if g.Error != "" {
			return fmt.Errorf("candidate %d: %s", i, g.Error)
		}
		if want[i].Err != nil {
			return fmt.Errorf("candidate %d: in-process recompute failed: %v", i, want[i].Err)
		}
		w := want[i].Estimate
		if math.Float64bits(g.CF) != math.Float64bits(w.CF) || g.SampleRows != w.SampleRows {
			return fmt.Errorf("candidate %d: served cf %v (rows %d), recomputed cf %v (rows %d)",
				i, g.CF, g.SampleRows, w.CF, w.SampleRows)
		}
	}
	return nil
}

// checkLive is the check for answers on a table under writes, where no
// recomputation can reproduce the server's interleaving: each answer has
// no error, a finite positive cf, a positive sample, and claims
// convergence only within its target.
func checkLive(o *op, got []resultJSON) error {
	target := 0.0
	if o.est != nil {
		target = o.est.TargetError
	} else if o.whatif != nil {
		target = o.whatif.TargetError
	}
	for i, g := range got {
		switch {
		case g.Error != "":
			return fmt.Errorf("candidate %d: %s", i, g.Error)
		case math.IsNaN(g.CF) || math.IsInf(g.CF, 0) || g.CF <= 0:
			return fmt.Errorf("candidate %d: cf %v", i, g.CF)
		case g.SampleRows <= 0:
			return fmt.Errorf("candidate %d: sample_rows %d", i, g.SampleRows)
		case g.Converged != nil && *g.Converged && g.AchievedError > target:
			return fmt.Errorf("candidate %d: converged with achieved_error %v > target %v", i, g.AchievedError, target)
		}
	}
	return nil
}

// checkAdvise requires the served recommendation to equal the in-process
// one: same chosen indexes with bit-identical sizes, same totals, same
// rejections.
func checkAdvise(body []byte, rec physdesign.Recommendation) error {
	var got struct {
		Chosen []struct {
			Name           string  `json:"name"`
			EstimatedCF    float64 `json:"estimated_cf"`
			EstimatedBytes int64   `json:"estimated_bytes"`
		} `json:"chosen"`
		TotalBytes int64    `json:"total_bytes"`
		Rejected   []string `json:"rejected"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if len(got.Chosen) != len(rec.Chosen) || got.TotalBytes != rec.TotalBytes || !slices.Equal(got.Rejected, rec.Rejected) {
		return fmt.Errorf("served %d chosen / %d bytes / rejected %q, recomputed %d / %d / %q",
			len(got.Chosen), got.TotalBytes, got.Rejected, len(rec.Chosen), rec.TotalBytes, rec.Rejected)
	}
	for i, c := range got.Chosen {
		w := rec.Chosen[i]
		if c.Name != w.Name || math.Float64bits(c.EstimatedCF) != math.Float64bits(w.EstimatedCF) || c.EstimatedBytes != w.EstimatedBytes {
			return fmt.Errorf("chosen %d: served %s cf %v, recomputed %s cf %v", i, c.Name, c.EstimatedCF, w.Name, w.EstimatedCF)
		}
	}
	return nil
}

func checkInsert(o *op, body []byte) error {
	var got struct {
		Inserted int `json:"inserted"`
	}
	if err := json.Unmarshal(body, &got); err != nil {
		return err
	}
	if got.Inserted != len(o.insert.Rows) {
		return fmt.Errorf("inserted %d of %d rows", got.Inserted, len(o.insert.Rows))
	}
	return nil
}

// staticRoute reports whether the op's table does not change during the
// run, so its answers can be recomputed exactly.
func staticRoute(o *op) bool { return o.Route != routeLive }

// checker verifies outcomes after the timed phase.
type checker struct {
	rp       *replayer
	failures []string
	failed   int
	// advisePrecisionHits counts precision-cache hits the in-process
	// advisor scored inside its own coarse-to-fine passes.
	advisePrecisionHits uint64
	// replays holds each checked op's in-process outcome, for timing;
	// allocBytes and gcPauseNs total the runtime's allocation and GC pause
	// over those replays.
	replays    []replayed
	allocBytes uint64
	gcPauseNs  uint64
}

func (c *checker) fail(o *outcome, err error) {
	c.failed++
	if len(c.failures) < 5 {
		c.failures = append(c.failures, fmt.Sprintf("%s %s: %v", o.op.Kind, o.op.Route, err))
	}
}

// replay runs one op in-process, adding its allocation and GC pause to the
// checker's totals.
func (c *checker) replay(o *op) replayed {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	before := c.rp.eng.Stats().PrecisionHits
	rep := c.rp.run(o)
	if o.Kind == kindAdvise {
		c.advisePrecisionHits += c.rp.eng.Stats().PrecisionHits - before
	}
	runtime.ReadMemStats(&m1)
	c.allocBytes += m1.TotalAlloc - m0.TotalAlloc
	c.gcPauseNs += m1.PauseTotalNs - m0.PauseTotalNs
	return rep
}

// check verifies one outcome. Answers on static tables are recomputed
// in-process and must match exactly; answers on the live table get the
// invariant check. With replayAll, ops on the live table (inserts
// included) are replayed too, for timing.
func (c *checker) check(o *outcome, replayAll bool) {
	var rep replayed
	if replayAll || (o.op.Kind != kindInsert && staticRoute(o.op)) {
		rep = c.replay(o.op)
	}
	c.replays = append(c.replays, rep)
	if err := verify(o, rep); err != nil {
		c.fail(o, err)
	}
}

// verify is the output check of one outcome against its replay.
func verify(o *outcome, rep replayed) error {
	switch {
	case o.err != nil:
		return o.err
	case !o.ok():
		return fmt.Errorf("status %d: %s", o.status, strings.TrimSpace(string(o.body)))
	case o.op.Kind == kindInsert:
		return checkInsert(o.op, o.body)
	case rep.err != nil:
		return fmt.Errorf("in-process recompute: %w", rep.err)
	case o.op.Kind == kindAdvise:
		return checkAdvise(o.body, *rep.rec)
	}
	got, err := parseResults(o.op, o.body)
	if err != nil {
		return err
	}
	if !staticRoute(o.op) {
		return checkLive(o.op, got)
	}
	return checkExact(got, rep.results)
}

// truthKey names one exact CF: table, key list, codec.
type truthKey struct{ table, cols, codec string }

// truths computes core.TrueCF once for every (table, key list, codec) the
// audit requests size.
func truths(tabs map[string]catalogTable, audit []op) (map[truthKey]float64, error) {
	out := map[truthKey]float64{}
	for _, o := range audit {
		for _, c := range o.whatif.Candidates {
			k := truthKey{o.whatif.Table, strings.Join(c.Columns, ","), c.Codec}
			if _, ok := out[k]; ok {
				continue
			}
			codec, err := compress.Lookup(c.Codec)
			if err != nil {
				return nil, err
			}
			res, err := core.TrueCF(tabs[k.table], c.Columns, codec, 0)
			if err != nil {
				return nil, fmt.Errorf("true CF %v: %w", k, err)
			}
			out[k] = res.CF()
		}
	}
	return out, nil
}

// accuracy is the audit answers scored against the exact CFs.
type accuracy struct {
	absErr    []float64
	converged int // adaptive answers that report converged: true
	covered   int // ... whose cf ± achieved_error holds the exact CF
}

func scoreAudit(outs []outcome, truth map[truthKey]float64) (accuracy, error) {
	var a accuracy
	for i := range outs {
		o := &outs[i]
		if !o.ok() {
			continue // counted as a failure by the check
		}
		got, err := parseResults(o.op, o.body)
		if err != nil {
			continue
		}
		for j, g := range got {
			c := o.op.whatif.Candidates[j]
			cf, ok := truth[truthKey{o.op.whatif.Table, strings.Join(c.Columns, ","), c.Codec}]
			if !ok || g.Error != "" {
				continue
			}
			e := math.Abs(g.CF - cf)
			a.absErr = append(a.absErr, e)
			if g.Converged != nil && *g.Converged {
				a.converged++
				if e <= g.AchievedError {
					a.covered++
				}
			}
		}
	}
	if len(a.absErr) == 0 {
		return a, errors.New("no audit answers to score")
	}
	return a, nil
}

// selfCheck asserts, from the server's own counters over the timed phase,
// that the workload did what its description claims. A run that fails it
// is invalid, not scored.
func selfCheck(w *workloadDef, p *phase, c *checker) error {
	st, met := p.statDelta, p.metricDelta
	if p.exhausted {
		return errors.New("the generated read sequence ran out before the deadline")
	}
	switch w.name {
	case "whatif-cold":
		if h := st("cache_hits"); h != 0 {
			return fmt.Errorf("whatif-cold must never hit the result cache; %v hits", h)
		}
	case "adaptive-advise":
		// Every (route, key list, codec) is asked once, so the only
		// precision-cache hits allowed are the advisor's own: its refine
		// pass may find a candidate already sized tighter by its screen.
		// The in-process recomputation counts exactly those.
		if h := st("precision_hits"); h != float64(c.advisePrecisionHits) {
			return fmt.Errorf("adaptive-advise repeated a candidate: %v precision hits, %d from advisor refinement",
				h, c.advisePrecisionHits)
		}
	case "live-mixed":
		if h := st("shard_cache_hits"); h <= 0 {
			return errors.New("live-mixed: no per-shard cache hits")
		}
		if n := met("samplecf_db_snapshots_published_total"); n <= 0 {
			return errors.New("live-mixed: no snapshot publications")
		}
		if n := met("samplecf_db_snapshot_rebuilds_total"); n != 0 {
			return fmt.Errorf("live-mixed: %v snapshot rebuilds", n)
		}
	}
	return nil
}
