package engine

import (
	"context"
	"testing"

	"samplecf/internal/distrib"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

// benchWideTable generates the end-to-end benchmark's static table shape:
// 250k rows of eight mixed columns — CHAR columns of 8-40 bytes, uniform
// and zipf, beside three INT columns (core's BenchmarkStratifyTable uses
// the same spec).
func benchWideTable(b *testing.B) *workload.Table {
	b.Helper()
	cols := []struct {
		name         string
		charLen      int // 0 = INT
		domain       int64
		theta        float64 // 0 = uniform
		lenLo, lenHi int
		seed         uint64
	}{
		{"region", 16, 50, 0, 4, 12, 1},
		{"city", 24, 2000, 0.8, 6, 20, 2},
		{"product", 40, 20000, 0.7, 10, 30, 3},
		{"customer", 32, 100000, 0, 8, 24, 4},
		{"status", 8, 6, 0, 3, 8, 5},
		{"qty", 0, 500, 0, 0, 0, 0},
		{"price", 0, 10000, 0.9, 0, 0, 0},
		{"day", 0, 3650, 0, 0, 0, 0},
	}
	spec := workload.Spec{Name: "wide", N: 250_000, Seed: 11}
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
			b.Fatal(err)
		}
		spec.Cols = append(spec.Cols, workload.SpecColumn{Name: c.name, Gen: gen})
	}
	tab, err := workload.Generate(spec)
	if err != nil {
		b.Fatal(err)
	}
	return tab
}

// BenchmarkWhatIfStratified measures one fixed-r stratified what-if batch
// — two key lists under four codecs at Strata: 8 and f = 1% on the 250k-row
// wide table — with the directories warm and a fresh seed per iteration,
// so each iteration draws, prepares and compresses but never scans. A
// batch shares each key list's arm set across its codecs: draws/op counts
// per-arm draws (two lists × their non-empty strata).
func BenchmarkWhatIfStratified(b *testing.B) {
	tab := benchWideTable(b)
	e := New(Config{})
	defer e.Close()
	codecs := []string{"nullsuppression", "pagedict+ns", "rle", "prefix"}
	batch := func(seed uint64) []Request {
		var reqs []Request
		for _, cols := range [][]string{{"customer", "region"}, {"city", "status", "qty"}} {
			for _, name := range codecs {
				reqs = append(reqs, Request{Table: tab, Codec: codec(b, name), KeyColumns: cols,
					Fraction: 0.01, Seed: seed, Strata: 8})
			}
		}
		return reqs
	}
	run := func(seed uint64) {
		for _, res := range e.WhatIf(context.Background(), batch(seed)) {
			if res.Err != nil {
				b.Fatal(res.Err)
			}
		}
	}
	run(0) // build and cache both directories
	drawn := e.Stats().SamplesDrawn
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		run(uint64(i + 1))
	}
	b.StopTimer()
	b.ReportMetric(float64(e.Stats().SamplesDrawn-drawn)/float64(b.N), "draws/op")
}
