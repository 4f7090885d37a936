// Command perfbench is the repository benchmark: it builds nothing itself
// (run.sh builds it and cfserve), boots the real cfserve binary, registers
// a workload's tables over HTTP, drives the workload over loopback, checks
// every answer, and prints the end-to-end metrics (or, with -trace 1, the
// per-layer metrics of an in-process replay). See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"time"
)

// setupRepeats is how many times a scored run boots the server and loads
// its tables; setup_s is the median.
const setupRepeats = 3

type metric struct {
	name  string
	value float64
	unit  string
	n     int // samples behind a percentile or mean; 0 = a count or ratio
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
		seed     = flag.Uint64("seed", 1, "workload seed")
		seconds  = flag.Int("seconds", 10, "timed phase length in seconds")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced in-process replay")
		bin      = flag.String("cfserve", ".bench_build/cfserve", "cfserve binary")
		traceDir = flag.String("trace-dir", ".bench_build/traces", "where -trace 1 writes its spans")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1, *bin, *traceDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds int, traced bool, bin, traceDir string) error {
	if seconds < 1 {
		return errors.New("-seconds must be at least 1")
	}
	w, err := generate(name, seed, seconds)
	if err != nil {
		return err
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("cfserve binary: %w", err)
	}
	printMeta(w, traced)

	// Set up: boot and load repeatedly, keep the last server for the run.
	repeats := setupRepeats
	if traced {
		repeats = 1
	}
	var s *server
	var setups []float64
	for k := 0; k < repeats; k++ {
		if s != nil {
			s.stop()
		}
		var d time.Duration
		if s, d, err = setup(bin, w); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.Seconds())
	}
	stopped := false
	defer func() {
		if !stopped {
			s.stop()
		}
	}()

	p, err := runPhase(s, w, time.Duration(seconds)*time.Second)
	if err != nil {
		return err
	}
	var audit []outcome
	if !traced {
		audit = runAudit(s, w)
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return err
	}
	s.stop()
	stopped = true

	// Everything below runs after the server is gone: in-process tables,
	// the output check, ground truth, and (traced) the replays.
	shared := map[string]catalogTable{}
	for _, t := range w.tables {
		tab, err := t.build()
		if err != nil {
			return err
		}
		shared[t.name] = tab
	}
	workers := 0
	if traced {
		workers = 1 // the replays time one request at a time on one core
	}
	tabs, err := replayTables(w, shared)
	if err != nil {
		return err
	}
	rp := newReplayer(tabs, workers)
	defer rp.close()
	c := &checker{rp: rp}
	seq := sequence(p)
	for _, o := range seq {
		c.check(o, traced)
	}
	for i := range audit {
		c.check(&audit[i], false)
	}
	if err := selfCheck(w, p, c); err != nil {
		fmt.Printf("INVALID RUN: %v\n", err)
		return fmt.Errorf("invalid run: %w", err)
	}

	attempted := len(p.reads) + len(p.writes) + len(audit)
	var metrics []metric
	if traced {
		ls, err := tracedPass(w, seq, shared)
		if err != nil {
			return fmt.Errorf("traced replay: %w", err)
		}
		if err := writeSpans(traceDir, fmt.Sprintf("%s-%d.jsonl", w.name, w.seed), ls.tr.spans); err != nil {
			return err
		}
		metrics = layerMetrics(seq, p, c, ls)
	} else {
		// The live table's final state is its spec plus every write, in
		// the order the single writer sent them.
		for _, o := range p.writes {
			if o.ok() {
				if rep := rp.run(o.op); rep.err != nil {
					return rep.err
				}
			}
		}
		truth, err := truths(tabs, w.audit)
		if err != nil {
			return err
		}
		acc, err := scoreAudit(audit, truth)
		if err != nil {
			return err
		}
		metrics = endToEnd(w, p, setups, rss, acc, c.failed, attempted)
	}
	for _, f := range c.failures {
		fmt.Printf("FAILED: %s\n", f)
	}
	return emit(metrics, c.failed, attempted)
}

// printMeta prints the run's provenance.
func printMeta(w *workloadDef, traced bool) {
	commit := "unknown (not a git checkout)"
	if _, err := os.Stat(".git"); err == nil {
		if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	goVer := runtime.Version()
	if bi, ok := debug.ReadBuildInfo(); ok {
		goVer = bi.GoVersion
	}
	fmt.Printf("workload %s  seed %d  trace %v\n", w.name, w.seed, traced)
	fmt.Printf("nproc %d  GOMAXPROCS %d (client and server, default)  go %s  commit %s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), goVer, commit)
	fmt.Printf("connections %d (%d closed-loop reader(s)", w.conns(), w.readers)
	if len(w.writes) > 0 {
		fmt.Printf(", 1 open-loop writer: %d rows every %v on average", writeBatchRows, writeMeanGap)
	}
	fmt.Println(")")
	fmt.Println("not exercised: cross-request coalescing (needs concurrent identical misses, which 2 connections of distinct requests do not make; engine.coalesced_waits is still recorded); fault, retry and degraded paths (the chaos test suite covers them)")
}

func pct(xs []float64, q float64) metric {
	return metric{value: quantile(xs, q), n: len(xs)}
}

func named(m metric, name, unit string) metric {
	m.name, m.unit = name, unit
	return m
}

// endToEnd computes the untraced run's metrics.
func endToEnd(w *workloadDef, p *phase, setups []float64, rss float64, acc accuracy, failed, attempted int) []metric {
	var est, writes, late []float64
	for _, o := range p.reads {
		est = append(est, ms(o.lat))
	}
	for _, o := range p.writes {
		writes = append(writes, ms(o.lat))
		late = append(late, ms(o.start.Sub(o.due)))
	}
	secs := p.elapsed.Seconds()
	cover := 0.0
	if acc.converged > 0 {
		cover = float64(acc.covered) / float64(acc.converged)
	}
	out := []metric{
		named(pct(setups, 0.5), "setup_s", "s"),
		named(pct(est, 0.5), "est_p50_ms", "ms"),
		named(pct(est, 0.9), "est_p90_ms", "ms"),
		{name: "est_per_s", value: float64(len(est)) / secs, unit: "req/s", n: len(est)},
		named(pct(acc.absErr, 0.5), "cf_abs_err_p50", "cf"),
		named(pct(acc.absErr, 0.9), "cf_abs_err_p90", "cf"),
		{name: "ci_cover_share", value: cover, unit: "ratio", n: acc.converged},
		{name: "server_rss_mb", value: rss, unit: "MB"},
		{name: "server_cpu_ms_per_req", value: ms(p.cpu) / float64(max(1, len(est))), unit: "ms", n: len(est)},
	}
	// Reported, not in BENCHMARK.json: a bench metric must exist and be
	// non-zero on every workload, and these do not.
	fmt.Printf("fail_share %v ratio (%d of %d operations)\n", float64(failed)/float64(max(1, attempted)), failed, attempted)
	if len(writes) > 0 {
		fmt.Printf("write_p50_ms %v ms (n=%d)\n", quantile(writes, 0.5), len(writes))
		fmt.Printf("write_p90_ms %v ms (n=%d)\n", quantile(writes, 0.9), len(writes))
		fmt.Printf("writer lateness against schedule: p50 %.3f ms, p90 %.3f ms, max %.3f ms\n",
			quantile(late, 0.5), quantile(late, 0.9), slices.Max(late))
	}
	fmt.Printf("audit: %d answers scored against core.TrueCF, %d adaptive answers claimed convergence, %d covered\n",
		len(acc.absErr), acc.converged, acc.covered)
	return out
}

// emit prints the metrics by name with unit and sample count, then the
// one-line JSON result.
func emit(ms []metric, failed, attempted int) error {
	out := result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]map[string]any{}}
	for _, m := range ms {
		if m.n > 0 {
			fmt.Printf("%s %v %s (n=%d)\n", m.name, m.value, m.unit, m.n)
		} else {
			fmt.Printf("%s %v %s\n", m.name, m.value, m.unit)
		}
		out.Metrics[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}
