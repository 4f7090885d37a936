package experiments

import (
	"fmt"
	"io"

	"samplecf/internal/compress"
	"samplecf/internal/core"
	"samplecf/internal/distrib"
	"samplecf/internal/stats"
	"samplecf/internal/workload"
)

// E2 reproduces Example 1: a table of n = 100 million rows, sampled at 1%
// (r = 1 million), gives σ(CF'_NS) ≤ 5·10⁻⁴. The table is virtual
// (generator-backed), so the experiment runs in constant memory — a
// stand-in for the authors' 100M-row testbed, which is not available.
func init() {
	register(Experiment{
		ID:       "E2",
		Artifact: "Example 1",
		Title:    "n=10⁸, r=10⁶ (1% sample): σ(CF'_NS) ≤ 5·10⁻⁴ on a virtual table",
		Run:      runE2,
	})
}

func runE2(cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	// Full scale is the paper's n = 10⁸. Scaled runs keep f = 1%, so the
	// bound moves with r; the conclusion (σ below bound) is scale-free.
	n := cfg.scaleN(100_000_000, 1_000_000)
	const f = 0.01
	r := int64(f * float64(n))
	trials := cfg.scaleTrials(30, 15)
	const k = 20

	spec, err := charSpec("example1", n, n, k, distrib.NewUniformLen(0, k), cfg.Seed+17, workload.LayoutShuffled)
	if err != nil {
		return err
	}
	vt, err := workload.NewVirtual(spec)
	if err != nil {
		return err
	}
	codec, err := compress.Lookup("nullsuppression")
	if err != nil {
		return err
	}

	// Ground truth by streaming the full virtual table once.
	fmt.Fprintf(w, "computing exact CF over n=%d virtual rows...\n", n)
	cs, err := columnStat(vt)
	if err != nil {
		return err
	}
	truth := cs.CFNullSuppression(k, 1)

	var acc stats.Accumulator
	for trial := 0; trial < trials; trial++ {
		est, err := core.SampleCF(vt, vt.Schema(), core.Options{
			SampleRows: r, Codec: codec, Seed: cfg.Seed ^ uint64(trial)*7919,
		})
		if err != nil {
			return err
		}
		acc.Add(est.CF)
		if cfg.Verbose {
			fmt.Fprintf(w, "  trial %2d: CF' = %.6f (err %+.2e)\n", trial, est.CF, est.CF-truth)
		}
	}
	bound := core.Theorem1StdDevBound(r)

	tbl := NewTable("E2: Example 1 reproduction",
		"n", "r", "trueCF", "meanCF'", "bias", "sd(CF')", "bound", "sd<=bound")
	tbl.AddRow(d(n), d(r), f6(truth), f6(acc.Mean()), f6(acc.Mean()-truth),
		g3(acc.StdDev()), g3(bound), fmt.Sprintf("%v", acc.StdDev() <= bound))
	tbl.AddNote("paper's Example 1: at n=10⁸, r=10⁶ the bound is 1/(2·1000) = 5·10⁻⁴")
	tbl.AddNote("max |CF'-CF| observed over %d trials: %.2e", trials, maxAbsDev(acc, truth))
	_, err = tbl.WriteTo(w)
	return err
}

// maxAbsDev approximates the worst observed deviation using min/max.
func maxAbsDev(acc stats.Accumulator, truth float64) float64 {
	lo := truth - acc.Min()
	hi := acc.Max() - truth
	if lo > hi {
		return lo
	}
	return hi
}
