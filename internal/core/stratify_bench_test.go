package core

import (
	"testing"

	"samplecf/internal/distrib"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

// wideTable generates an n-row table with the eight-column mixed schema
// the end-to-end benchmark's static table uses: CHAR columns of 8-40
// bytes, uniform and zipf, beside three INT columns.
func wideTable(tb testing.TB, n int64) *workload.Table {
	tb.Helper()
	type col struct {
		name         string
		charLen      int // 0 = INT
		domain       int64
		theta        float64 // 0 = uniform
		lenLo, lenHi int
		seed         uint64
	}
	cols := []col{
		{"region", 16, 50, 0, 4, 12, 1},
		{"city", 24, 2000, 0.8, 6, 20, 2},
		{"product", 40, 20000, 0.7, 10, 30, 3},
		{"customer", 32, 100000, 0, 8, 24, 4},
		{"status", 8, 6, 0, 3, 8, 5},
		{"qty", 0, 500, 0, 0, 0, 0},
		{"price", 0, 10000, 0.9, 0, 0, 0},
		{"day", 0, 3650, 0, 0, 0, 0},
	}
	spec := workload.Spec{Name: "wide", N: n, Seed: 11}
	for _, c := range cols {
		var d distrib.Discrete = distrib.NewUniform(c.domain)
		if c.theta > 0 {
			d = distrib.NewZipf(c.domain, c.theta)
		}
		var gen workload.ColumnGen
		var err error
		if c.charLen > 0 {
			gen, err = workload.NewStringColumn(value.Char(c.charLen), d, distrib.NewUniformLen(c.lenLo, c.lenHi), c.seed)
		} else {
			gen, err = workload.NewIntColumn(value.Int32(), d, 0)
		}
		if err != nil {
			tb.Fatal(err)
		}
		spec.Cols = append(spec.Cols, workload.SpecColumn{Name: c.name, Gen: gen})
	}
	tab, err := workload.Generate(spec)
	if err != nil {
		tb.Fatal(err)
	}
	return tab
}

// BenchmarkStratifyTable measures one strata-directory build — the O(n)
// classify scan plus index layout a stratified estimate pays once per
// (table version, key columns, strata) — on a 250k-row wide table at 8
// strata, for a narrow INT key, a wide CHAR key, and a key led by a
// six-value column whose rows tie the boundaries' 8-byte prefixes.
func BenchmarkStratifyTable(b *testing.B) {
	tab := wideTable(b, 250_000)
	for _, kc := range []struct {
		name string
		cols []string
	}{
		{"int", []string{"qty"}},
		{"char", []string{"product", "customer"}},
		{"lowcard", []string{"status", "customer"}},
	} {
		bounds, err := StratumBoundaries(tab, tab.Schema(), kc.cols, 8)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(kc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := StratifyTable(tab, tab.Schema(), kc.cols, bounds); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
