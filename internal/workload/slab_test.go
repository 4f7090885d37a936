package workload

import (
	"bytes"
	"slices"
	"testing"

	"samplecf/internal/distrib"
	"samplecf/internal/value"
)

// shortMean under-reports its lengths' mean, so payloadHint undersizes the
// payload slab and materialize must grow it and rebase the rows written.
type shortMean struct{ distrib.Lengths }

func (shortMean) Mean() float64 { return 1 }

// mixedSpec covers every column kind: CHAR and VARCHAR strings (lengths
// short enough that the base-62 prefix clamps some of them), INT and BIGINT.
func mixedSpec(t testing.TB, n int64, layout Layout) Spec {
	t.Helper()
	char, err := NewStringColumn(value.Char(12), distrib.NewZipf(5000, 0.8), distrib.NewUniformLen(1, 12), 2)
	if err != nil {
		t.Fatal(err)
	}
	varchar, err := NewStringColumn(value.VarChar(40), distrib.NewUniform(300), shortMean{distrib.NewUniformLen(0, 40)}, 3)
	if err != nil {
		t.Fatal(err)
	}
	i32, err := NewIntColumn(value.Int32(), distrib.NewUniform(500), -250)
	if err != nil {
		t.Fatal(err)
	}
	i64, err := NewIntColumn(value.Int64(), distrib.NewZipf(10000, 0.9), 1<<40)
	if err != nil {
		t.Fatal(err)
	}
	return Spec{Name: "mixed", N: n, Seed: 5, Layout: layout, Cols: []SpecColumn{
		{Name: "c", Gen: char}, {Name: "v", Gen: varchar}, {Name: "i", Gen: i32}, {Name: "b", Gen: i64},
	}}
}

// TestGenerateMatchesRowOf pins the slab layout to the per-row generator:
// every materialized row equals rowOf's, whose values are each column's
// Payload of the row's domain draw, in both layouts.
func TestGenerateMatchesRowOf(t *testing.T) {
	for _, layout := range []Layout{LayoutShuffled, LayoutClustered} {
		t.Run(layout.String(), func(t *testing.T) {
			spec := mixedSpec(t, 3000, layout)
			tab, err := Generate(spec)
			if err != nil {
				t.Fatal(err)
			}
			want := make([]value.Row, spec.N)
			payload := 0
			for i := range want {
				want[i] = spec.rowOf(int64(i))
				for c, col := range spec.Cols {
					if p := col.Gen.Payload(spec.domainOf(int64(i), c)); !bytes.Equal(want[i][c], p) {
						t.Fatalf("rowOf(%d)[%d] = %q, Payload of its draw = %q", i, c, want[i][c], p)
					}
					payload += len(want[i][c])
				}
			}
			if hint := spec.payloadHint(); payload <= hint {
				t.Fatalf("payload %d B fits the %d B hint: the slab-growth path went untested", payload, hint)
			}
			if layout == LayoutClustered {
				typ := tab.Schema().Column(0).Type
				slices.SortStableFunc(want, func(a, b value.Row) int { return value.CompareValues(typ, a[0], b[0]) })
			}
			for i, row := range tab.Rows() {
				if len(row) != len(spec.Cols) {
					t.Fatalf("row %d has %d values", i, len(row))
				}
				for c := range row {
					if !bytes.Equal(row[c], want[i][c]) {
						t.Fatalf("row %d col %d = %q, want %q", i, c, row[c], want[i][c])
					}
				}
			}
		})
	}
}

// TestGeneratedValuesCapClamped appends to every slab value and row header:
// neither the next value of the row nor the first value of the next row may
// change.
func TestGeneratedValuesCapClamped(t *testing.T) {
	for _, layout := range []Layout{LayoutShuffled, LayoutClustered} {
		tab, err := Generate(mixedSpec(t, 200, layout))
		if err != nil {
			t.Fatal(err)
		}
		rows := tab.Rows()
		for i := 0; i+1 < len(rows); i++ {
			for c := range rows[i] {
				next := rows[i+1][0]
				if c+1 < len(rows[i]) {
					next = rows[i][c+1]
				}
				before := bytes.Clone(next)
				_ = append(rows[i][c], "\xff\xff\xff\xff\xff\xff\xff\xff"...)
				if !bytes.Equal(next, before) {
					t.Fatalf("%s: append to row %d col %d overwrote its neighbour", layout, i, c)
				}
			}
			first := rows[i+1][0]
			_ = append(rows[i], []byte("x"))
			if !bytes.Equal(rows[i+1][0], first) {
				t.Fatalf("%s: append to row %d's headers overwrote row %d", layout, i, i+1)
			}
		}
	}
}

// TestRowOfAllocations: beyond what the column generators allocate for a
// payload, rowOf allocates one header block, one payload buffer, and one
// generator per row — not one payload and one generator per value.
func TestRowOfAllocations(t *testing.T) {
	spec := mixedSpec(t, 100, LayoutShuffled)
	want := spec.rowOf(7)
	scratch := make([]byte, 0, 256)
	payloads := testing.AllocsPerRun(100, func() {
		for c, col := range spec.Cols {
			col.Gen.AppendPayload(scratch[:0], spec.domainOf(7, c))
		}
	}) - testing.AllocsPerRun(100, func() {
		for c := range spec.Cols {
			spec.domainOf(7, c)
		}
	})
	row := testing.AllocsPerRun(100, func() { spec.rowOf(7) })
	if got := row - payloads; got != 3 {
		t.Errorf("rowOf allocates %v times beyond its payloads' own, want 3 (headers, payload buffer, generator)", got)
	}
	if got := spec.rowOf(7); !slices.EqualFunc(got, want, bytes.Equal) {
		t.Errorf("rowOf(7) = %q, want %q", got, want)
	}
}

// wideSpec mirrors the 250k-row, eight-column "wide" table the repository
// benchmark serves: strings of mixed width and skew, then three INT columns.
func wideSpec(b *testing.B, n int64) Spec {
	b.Helper()
	str := func(length int, d distrib.Discrete, lo, hi int, seed uint64) ColumnGen {
		g, err := NewStringColumn(value.Char(length), d, distrib.NewUniformLen(lo, hi), seed)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	num := func(d distrib.Discrete) ColumnGen {
		g, err := NewIntColumn(value.Int32(), d, 0)
		if err != nil {
			b.Fatal(err)
		}
		return g
	}
	return Spec{Name: "wide", N: n, Seed: 1, Cols: []SpecColumn{
		{Name: "region", Gen: str(16, distrib.NewUniform(50), 4, 12, 1)},
		{Name: "city", Gen: str(24, distrib.NewZipf(2000, 0.8), 6, 20, 2)},
		{Name: "product", Gen: str(40, distrib.NewZipf(20000, 0.7), 10, 30, 3)},
		{Name: "customer", Gen: str(32, distrib.NewUniform(100000), 8, 24, 4)},
		{Name: "status", Gen: str(8, distrib.NewUniform(6), 3, 8, 5)},
		{Name: "qty", Gen: num(distrib.NewUniform(500))},
		{Name: "price", Gen: num(distrib.NewZipf(10000, 0.9))},
		{Name: "day", Gen: num(distrib.NewUniform(3650))},
	}}
}

// BenchmarkGenerate materializes the 250k-row wide table (run with
// -benchmem: allocs/op is the slab layout's per-value allocation count).
func BenchmarkGenerate(b *testing.B) {
	spec := wideSpec(b, 250_000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Generate(spec); err != nil {
			b.Fatal(err)
		}
	}
}
