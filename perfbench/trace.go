package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
	"time"

	"samplecf/internal/core"
	"samplecf/internal/db"
	"samplecf/internal/engine"
	"samplecf/internal/page"
	"samplecf/internal/physdesign"
	"samplecf/internal/rng"
	"samplecf/internal/sampling"
	"samplecf/internal/sortkeys"
	"samplecf/internal/value"
)

// span is one timed call the benchmark made into a layer's public API.
// Spans of one request share Req; Parent names the enclosing span.
type span struct {
	Name   string `json:"name"`
	Req    int    `json:"req"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	Dur    int64  `json:"dur_ns"`
	Allocs uint64 `json:"allocs,omitempty"`
	Rows   int64  `json:"rows,omitempty"`
}

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func (t *tracer) record(name string, req int, parent string, start time.Time, d time.Duration) *span {
	t.spans = append(t.spans, span{Name: name, Req: req, Parent: parent, Start: start.Sub(t.t0).Nanoseconds(), Dur: d.Nanoseconds()})
	return &t.spans[len(t.spans)-1]
}

func (t *tracer) timed(name string, req int, parent string, fn func()) time.Duration {
	start := time.Now()
	fn()
	d := time.Since(start)
	t.record(name, req, parent, start, d)
	return d
}

// sequence is the order ops are replayed in: the timed phase's reads in
// sequence order, or, when there are writes, reads and writes merged by
// the time the client actually sent them.
func sequence(p *phase) []*outcome {
	out := make([]*outcome, 0, len(p.reads)+len(p.writes))
	for i := range p.reads {
		out = append(out, &p.reads[i])
	}
	for i := range p.writes {
		out = append(out, &p.writes[i])
	}
	if len(p.writes) > 0 {
		sort.SliceStable(out, func(a, b int) bool { return out[a].start.Before(out[b].start) })
	}
	return out
}

// replayTables builds the in-process tables for one replay pass. Static
// tables are immutable and shared between passes; a table that takes
// writes is built fresh for each pass.
func replayTables(w *workloadDef, shared map[string]catalogTable) (map[string]catalogTable, error) {
	out := map[string]catalogTable{}
	for _, t := range w.tables {
		if len(w.writes) > 0 && t.live {
			tab, err := t.build()
			if err != nil {
				return nil, err
			}
			out[t.name] = tab
			continue
		}
		out[t.name] = shared[t.name]
	}
	return out, nil
}

// layerStats accumulates the traced pass's per-layer figures.
type layerStats struct {
	tr           tracer
	selfMS       []float64 // WhatIf span minus replayed stages, per split request
	drawMS       []float64 // per request with replayed draws
	prepareMS    []float64 // per prepared index
	sortNsPerRow []float64
	measureMS    []float64 // per candidate
	allocs       []float64 // per candidate
	adaptiveMS   []float64 // per adaptive ask
	mergeMS      []float64 // per merged answer
	sizeMS       []float64 // per /advise session
	refined      int
	sized        int
	insertMS     []float64 // per insert batch
	whatIfMS     []float64 // traced Engine.WhatIf spans, estimation ops
	faithful     int       // replayed plain fixed-r stages equal to the engine's answer
	splitCands   int
}

// tracedPass replays the sequence on a fresh one-worker engine, timing
// Engine.WhatIf and then the public stage calls that make up each
// request's route. Routes whose stages cannot be called without copying
// engine logic (stratified draws, shard allocation, adaptive arms on
// strata or shards, the live table's cache and maintained-sample path)
// are timed at Engine.WhatIf alone.
func tracedPass(w *workloadDef, seq []*outcome, shared map[string]catalogTable) (*layerStats, error) {
	tabs, err := replayTables(w, shared)
	if err != nil {
		return nil, err
	}
	rp := newReplayer(tabs, 1)
	defer rp.close()
	ls := &layerStats{tr: tracer{t0: time.Now()}}
	for i, o := range seq {
		switch o.op.Kind {
		case kindInsert:
			var rep replayed
			d := ls.tr.timed("db.ShardedTable.Insert", i, "", func() { rep = rp.run(o.op) })
			if rep.err != nil {
				return nil, rep.err
			}
			ls.insertMS = append(ls.insertMS, ms(d))
		case kindAdvise:
			cs, _, opts, err := rp.adviseArgs(o.op)
			if err != nil {
				return nil, err
			}
			var sized []physdesign.Sized
			d := ls.tr.timed("physdesign.SizeCandidates", i, "", func() { sized, err = physdesign.SizeCandidates(cs, opts) })
			if err != nil {
				return nil, err
			}
			ls.sizeMS = append(ls.sizeMS, ms(d))
			for _, s := range sized {
				ls.sized++
				if s.Refined {
					ls.refined++
				}
			}
		default:
			if err := ls.estimation(rp, i, o.op); err != nil {
				return nil, err
			}
		}
	}
	return ls, nil
}

// estimation traces one /whatif or /estimate op.
func (ls *layerStats) estimation(rp *replayer, i int, o *op) error {
	reqs, err := rp.requests(o)
	if err != nil {
		return err
	}
	var res []engine.Result
	wi := ls.tr.timed("engine.WhatIf", i, "", func() { res = rp.eng.WhatIf(context.Background(), reqs) })
	ls.whatIfMS = append(ls.whatIfMS, ms(wi))
	req := reqs[0]
	switch {
	case o.Route == routePlain && req.TargetError == 0:
		stages, err := ls.plainStages(i, reqs, res)
		if err != nil {
			return err
		}
		ls.selfMS = append(ls.selfMS, ms(wi-stages))
	case o.Route == routePlain:
		var stages time.Duration
		for _, r := range reqs {
			d, err := ls.adaptive(i, r)
			if err != nil {
				return err
			}
			stages += d
		}
		ls.selfMS = append(ls.selfMS, ms(wi-stages))
	case o.Route == routeShards && req.TargetError == 0:
		return ls.shardMerge(i, reqs)
	}
	return nil
}

// plainStages replays a fixed-r request on the static table stage by
// stage: one uniform-WR draw, one prepared index per key list, one
// measurement per candidate. It returns the stages' total time.
func (ls *layerStats) plainStages(i int, reqs []engine.Request, res []engine.Result) (time.Duration, error) {
	tab := reqs[0].Table
	r := sampling.SampleSize(tab.NumRows(), reqs[0].Fraction)
	ar := value.NewRecordArena(tab.Schema(), int(r))
	var err error
	total := ls.tr.timed("sampling.UniformWRInto", i, "engine.WhatIf", func() {
		err = sampling.UniformWRInto(tab, r, rng.New(reqs[0].Seed), ar)
	})
	if err != nil {
		return 0, err
	}
	ls.drawMS = append(ls.drawMS, ms(total))
	preps := map[string]*core.PreparedIndex{}
	for k, req := range reqs {
		key := strings.Join(req.KeyColumns, "\x00")
		prep, ok := preps[key]
		if !ok {
			d := ls.tr.timed("core.PrepareFromArena", i, "engine.WhatIf", func() {
				prep, err = core.PrepareFromArena(ar, tab.NumRows(), req.KeyColumns)
			})
			if err != nil {
				return 0, err
			}
			total += d
			ls.prepareMS = append(ls.prepareMS, ms(d))
			preps[key] = prep
			if err := ls.sortProfile(i, ar, req.KeyColumns); err != nil {
				return 0, err
			}
		}
		var est core.Estimate
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		start := time.Now()
		est, err = prep.Estimate(core.Options{Codec: req.Codec, PageSize: page.DefaultSize})
		d := time.Since(start)
		runtime.ReadMemStats(&m1)
		if err != nil {
			return 0, err
		}
		s := ls.tr.record("core.PreparedIndex.Estimate", i, "engine.WhatIf", start, d)
		s.Allocs = m1.Mallocs - m0.Mallocs
		total += d
		ls.measureMS = append(ls.measureMS, ms(d))
		ls.allocs = append(ls.allocs, float64(s.Allocs))
		ls.splitCands++
		if res[k].Err == nil && math.Float64bits(est.CF) == math.Float64bits(res[k].Estimate.CF) {
			ls.faithful++
		}
	}
	return total, nil
}

// sortProfile times sortkeys.SortProfile on the key columns projected out
// of the sample: the radix sort and run profile alone, per row.
func (ls *layerStats) sortProfile(i int, ar *value.RecordArena, cols []string) error {
	par, err := core.ProjectSample(ar, cols)
	if err != nil {
		return err
	}
	perm := make([]int32, par.Len())
	for k := range perm {
		perm[k] = int32(k)
	}
	d := ls.tr.timed("sortkeys.SortProfile", i, "core.PrepareFromArena", func() {
		sortkeys.SortProfile(par.Keys(), par.RowWidth(), perm)
	})
	ls.tr.spans[len(ls.tr.spans)-1].Rows = int64(par.Len())
	if par.Len() > 0 {
		ls.sortNsPerRow = append(ls.sortNsPerRow, float64(d.Nanoseconds())/float64(par.Len()))
	}
	return nil
}

// adaptive replays one plain-route adaptive ask through the public
// one-shot adaptive entry point (draw, prepare, estimate-extend rounds).
func (ls *layerStats) adaptive(i int, req engine.Request) (time.Duration, error) {
	var err error
	d := ls.tr.timed("core.SampleCFAdaptive", i, "engine.WhatIf", func() {
		_, err = core.SampleCFAdaptive(req.Table, req.Table.Schema(),
			core.Options{Codec: req.Codec, KeyColumns: req.KeyColumns, Seed: req.Seed, PageSize: page.DefaultSize},
			core.Precision{TargetError: req.TargetError, Confidence: req.Confidence, MaxSampleRows: req.Table.NumRows()})
	})
	ls.adaptiveMS = append(ls.adaptiveMS, ms(d))
	return d, err
}

// shardMerge times core.MergeStratified on a sharded fixed-r answer. The
// engine's own per-shard estimates are not reachable from outside it, so
// the merge runs over per-shard estimates replayed at proportional sample
// sizes from each shard.
func (ls *layerStats) shardMerge(i int, reqs []engine.Request) error {
	st, ok := reqs[0].Table.(*db.ShardedTable)
	if !ok {
		return nil
	}
	n := st.NumRows()
	r := sampling.SampleSize(n, reqs[0].Fraction)
	weights := make([]float64, st.NumShards())
	ests := make([][]core.Estimate, len(reqs))
	var draw time.Duration
	for s := range weights {
		shard := st.Shard(s)
		ns := shard.NumRows()
		weights[s] = float64(ns) / float64(n)
		rs := max(1, r*ns/n)
		ar := value.NewRecordArena(shard.Schema(), int(rs))
		var err error
		draw += ls.tr.timed("sampling.UniformWRInto", i, "engine.WhatIf", func() {
			err = sampling.UniformWRInto(shard, rs, rng.New(reqs[0].Seed+uint64(s)), ar)
		})
		if err != nil {
			return err
		}
		for k, req := range reqs {
			prep, err := core.PrepareFromArena(ar, ns, req.KeyColumns)
			if err != nil {
				return err
			}
			est, err := prep.Estimate(core.Options{Codec: req.Codec, PageSize: page.DefaultSize})
			if err != nil {
				return err
			}
			ests[k] = append(ests[k], est)
		}
	}
	ls.drawMS = append(ls.drawMS, ms(draw))
	for k := range reqs {
		d := ls.tr.timed("core.MergeStratified", i, "engine.WhatIf", func() { core.MergeStratified(weights, ests[k]) })
		ls.mergeMS = append(ls.mergeMS, ms(d))
	}
	return nil
}

// writeSpans saves the traced pass's spans as JSON lines.
func writeSpans(dir, name string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	return f.Close()
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// layerMetrics combines the server's counter deltas over the timed phase,
// the client's view of each request, and the two in-process replays into
// the per-layer metrics. seq and c.replays are parallel.
func layerMetrics(seq []*outcome, p *phase, c *checker, ls *layerStats) []metric {
	st, met := p.statDelta, p.metricDelta
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var rtt, inproc, untracedWI, rounds, rows []float64
	var respBytes float64
	for i, o := range seq {
		if !o.op.estimation() {
			continue
		}
		rtt = append(rtt, ms(o.lat))
		inproc = append(inproc, ms(c.replays[i].dur))
		respBytes += float64(len(o.body))
		if o.op.Kind == kindAdvise {
			continue
		}
		untracedWI = append(untracedWI, ms(c.replays[i].dur))
		if !o.op.adaptive() {
			continue
		}
		got, err := parseResults(o.op, o.body)
		if err != nil {
			continue
		}
		for _, g := range got {
			rounds = append(rounds, float64(g.Rounds))
			rows = append(rows, float64(g.SampleRows))
		}
	}
	nReq := float64(len(rtt))
	traced, untraced := quantile(ls.whatIfMS, 0.5), quantile(untracedWI, 0.5)
	fmt.Printf("tracing overhead: in-process Engine.WhatIf p50 %.4f ms traced vs %.4f ms untraced (%+.4f ms, %+.1f%%, n=%d)\n",
		traced, untraced, traced-untraced, 100*ratio(traced-untraced, untraced), len(untracedWI))
	fmt.Printf("stage split: plain fixed-r requests into draw/prepare/sort/measure (%d of %d replayed candidates equal the engine's answer bit for bit); plain adaptive asks at core.SampleCFAdaptive; strata, shards and live routes at Engine.WhatIf only; core.merge_ms over per-shard replay estimates\n",
		ls.faithful, ls.splitCands)
	fmt.Printf("replays run on a one-worker engine; client round trips n=%d\n", len(rtt))
	return []metric{
		{name: "cfserve.overhead_ms", value: quantile(rtt, 0.5) - quantile(inproc, 0.5), unit: "ms", n: len(rtt)},
		{name: "cfserve.resp_bytes", value: ratio(respBytes, nReq), unit: "bytes", n: len(rtt)},
		{name: "engine.self_ms", value: mean(ls.selfMS), unit: "ms", n: len(ls.selfMS)},
		{name: "engine.cache_hit_ratio", value: ratio(st("cache_hits"), st("cache_hits")+st("cache_misses")), unit: "ratio"},
		{name: "engine.shard_cache_hit_ratio", value: ratio(st("shard_cache_hits"), st("shard_cache_hits")+st("shard_cache_misses")), unit: "ratio"},
		{name: "engine.maintained_hit_ratio", value: ratio(st("maintained_hits"), st("maintained_hits")+st("maintained_stale")), unit: "ratio"},
		{name: "engine.samples_per_req", value: ratio(st("samples_drawn"), nReq), unit: "count"},
		{name: "engine.shared_sample_ratio", value: ratio(st("samples_shared"), st("evaluated")), unit: "ratio"},
		{name: "engine.coalesced_waits", value: st("coalesced_waits"), unit: "count"},
		{name: "sampling.draw_ms", value: mean(ls.drawMS), unit: "ms", n: len(ls.drawMS)},
		{name: "sampling.rows_per_req", value: ratio(met("samplecf_sampling_rows_drawn_total"), nReq), unit: "rows"},
		{name: "core.prepare_ms", value: mean(ls.prepareMS), unit: "ms", n: len(ls.prepareMS)},
		{name: "core.prepare_ns_per_row", value: ratio(st("prepare_nanos"), st("sort_rows")), unit: "ns/row"},
		{name: "sortkeys.sort_ns_per_row", value: mean(ls.sortNsPerRow), unit: "ns/row", n: len(ls.sortNsPerRow)},
		{name: "compress.measure_ms", value: mean(ls.measureMS), unit: "ms", n: len(ls.measureMS)},
		{name: "compress.allocs_per_est", value: mean(ls.allocs), unit: "allocs", n: len(ls.allocs)},
		{name: "core.adaptive_ms", value: mean(ls.adaptiveMS), unit: "ms", n: len(ls.adaptiveMS)},
		{name: "core.rounds_per_est", value: mean(rounds), unit: "count", n: len(rounds)},
		{name: "core.rows_per_est", value: mean(rows), unit: "rows", n: len(rows)},
		{name: "core.merge_ms", value: mean(ls.mergeMS), unit: "ms", n: len(ls.mergeMS)},
		{name: "core.strata_dir_builds", value: st("strata_directory_builds"), unit: "count"},
		{name: "physdesign.size_ms", value: mean(ls.sizeMS), unit: "ms", n: len(ls.sizeMS)},
		{name: "physdesign.refined_share", value: ratio(float64(ls.refined), float64(ls.sized)), unit: "ratio", n: ls.sized},
		{name: "db.insert_ms", value: mean(ls.insertMS), unit: "ms", n: len(ls.insertMS)},
		{name: "db.snapshot_publishes", value: met("samplecf_db_snapshots_published_total"), unit: "count"},
		{name: "db.snapshot_rebuilds", value: met("samplecf_db_snapshot_rebuilds_total"), unit: "count"},
		{name: "runtime.alloc_mb_per_req", value: ratio(float64(c.allocBytes)/(1<<20), nReq), unit: "MB"},
		{name: "runtime.gc_pause_ms", value: float64(c.gcPauseNs) / 1e6, unit: "ms"},
	}
}
