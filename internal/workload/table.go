package workload

import (
	"fmt"
	"slices"

	"samplecf/internal/catalog"
	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// Layout controls the physical row order of a materialized table. It does
// not change the value distribution — only which rows are neighbors, the
// property block sampling (E7) is sensitive to.
type Layout int

const (
	// LayoutShuffled stores rows in independent random draw order.
	LayoutShuffled Layout = iota
	// LayoutClustered stores rows sorted by the first column, modeling a
	// clustered index organization where equal values share pages.
	LayoutClustered
)

// String names the layout.
func (l Layout) String() string {
	switch l {
	case LayoutShuffled:
		return "shuffled"
	case LayoutClustered:
		return "clustered"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// Spec describes a synthetic table.
type Spec struct {
	Name   string
	N      int64
	Seed   uint64
	Cols   []SpecColumn
	Layout Layout
}

// SpecColumn pairs a column name with its generator.
type SpecColumn struct {
	Name string
	Gen  ColumnGen
}

// Schema derives the value.Schema of the spec.
func (s Spec) Schema() (*value.Schema, error) {
	cols := make([]value.Column, len(s.Cols))
	for i, c := range s.Cols {
		cols[i] = value.Column{Name: c.Name, Type: c.Gen.Type()}
	}
	return value.NewSchema(cols...)
}

// rowOf materializes row i of the spec on its own: one header block, one
// payload buffer sized for the widest row, and one generator for the draws.
func (s Spec) rowOf(i int64) value.Row {
	width := 0
	for _, col := range s.Cols {
		width += col.Gen.Type().FixedWidth()
	}
	row := make(value.Row, len(s.Cols))
	s.appendRow(make([]byte, 0, width), row, i, new(rng.RNG))
	return row
}

// appendRow appends row i's payloads to buf — one independent domain draw
// per column, domainOf's, made with the scratch generator r — and points
// row's values at them. It returns the extended buffer.
func (s Spec) appendRow(buf []byte, row value.Row, i int64, r *rng.RNG) []byte {
	start := len(buf)
	for c, col := range s.Cols {
		n := len(buf)
		buf = col.Gen.AppendPayload(buf, s.draw(r, i, c))
		row[c] = buf[n:]
	}
	rebase(row, buf[start:])
	return buf
}

// rebase points vals, laid out back to back from the start of buf, at buf's
// current backing array (an append that grew buf left them on the old one).
// Every value is cap-clamped, so an append to one value reallocates rather
// than overwriting its neighbour.
func rebase(vals [][]byte, buf []byte) {
	off := 0
	for k, v := range vals {
		end := off + len(v)
		vals[k] = buf[off:end:end]
		off = end
	}
}

// domainOf returns the domain index drawn for (row i, column c); stats code
// counts distincts over these indices.
func (s Spec) domainOf(i int64, c int) int64 { return s.draw(new(rng.RNG), i, c) }

// draw makes domainOf's draw with r, reseeded by the per-(seed, column, row)
// derivation.
func (s Spec) draw(r *rng.RNG, i int64, c int) int64 {
	r.Seed(s.Seed ^ uint64(c+1)*0xd1342543de82ef95 ^ uint64(i)*0x9e3779b97f4a7c15)
	return s.Cols[c].Gen.Dist().Draw(r)
}

// materialize generates every row of the spec into two row-ordered slabs:
// one holding all value headers (row i is a cap-clamped sub-slice of it) and
// one holding all payloads, so a scan walks memory in order instead of
// chasing one heap object per value.
func (s Spec) materialize() []value.Row {
	nc := int64(len(s.Cols))
	vals := make([][]byte, s.N*nc)
	rows := make([]value.Row, s.N)
	buf := make([]byte, 0, s.payloadHint())
	r := new(rng.RNG)
	for i := range rows {
		lo, hi := int64(i)*nc, int64(i+1)*nc
		oldCap := cap(buf)
		buf = s.appendRow(buf, vals[lo:hi:hi], int64(i), r)
		if cap(buf) != oldCap {
			rebase(vals[:lo], buf)
		}
		rows[i] = vals[lo:hi:hi]
	}
	return rows
}

// payloadHint estimates the payload slab's size so it rarely grows: the
// mean length of string columns (at least their prefix width), the fixed
// width of the rest, plus 1/64 slack. Skewed domains can still outgrow it;
// materialize then rebases the rows already written.
func (s Spec) payloadHint() int {
	perRow := 0.0
	for _, col := range s.Cols {
		if sc, ok := col.Gen.(*StringColumn); ok {
			perRow += max(sc.Lengths.Mean(), float64(sc.digits))
		} else {
			perRow += float64(col.Gen.Type().FixedWidth())
		}
	}
	return int(perRow * float64(s.N) * (1 + 1.0/64))
}

// Table is a fully materialized synthetic table. Generated tables store
// their rows contiguously (see materialize). It implements
// catalog.Table (the embedded Version supplies epoch + instance id;
// physical reorders bump the epoch); AsPageSource adapts it for block
// sampling.
type Table struct {
	catalog.Version
	name   string
	schema *value.Schema
	rows   []value.Row
}

var _ catalog.Table = (*Table)(nil)

// Generate materializes a table from spec.
func Generate(spec Spec) (*Table, error) {
	if spec.N < 0 {
		return nil, fmt.Errorf("workload: negative row count %d", spec.N)
	}
	if len(spec.Cols) == 0 {
		return nil, fmt.Errorf("workload: spec has no columns")
	}
	schema, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	t := &Table{Version: catalog.NewVersion(), name: spec.Name, schema: schema, rows: spec.materialize()}
	if spec.Layout == LayoutClustered {
		t.SortByColumn(0)
	}
	return t, nil
}

// NewTableFromRows wraps existing rows (used by CSV import and tests).
func NewTableFromRows(name string, schema *value.Schema, rows []value.Row) (*Table, error) {
	for i, r := range rows {
		if err := value.ValidateRow(schema, r); err != nil {
			return nil, fmt.Errorf("workload: row %d: %w", i, err)
		}
	}
	return &Table{Version: catalog.NewVersion(), name: name, schema: schema, rows: rows}, nil
}

// Name returns the table name.
func (t *Table) Name() string { return t.name }

// Schema returns the table schema.
func (t *Table) Schema() *value.Schema { return t.schema }

// NumRows implements sampling.RowSource.
func (t *Table) NumRows() int64 { return int64(len(t.rows)) }

// Row implements sampling.RowSource.
func (t *Table) Row(i int64) (value.Row, error) {
	if i < 0 || i >= int64(len(t.rows)) {
		return nil, fmt.Errorf("workload: row %d out of range [0,%d)", i, len(t.rows))
	}
	return t.rows[i], nil
}

// Rows exposes the backing slice (not a copy; callers must not mutate).
func (t *Table) Rows() []value.Row { return t.rows }

// StableRows marks the table as a sampling.StableRowSource: rows only move
// through the explicit re-layout calls (SortByColumn, Shuffle) the owner
// serializes around readers, so concurrent sweeps see one frozen state.
func (t *Table) StableRows() {}

// Scan iterates all rows in storage order.
func (t *Table) Scan(fn func(i int64, row value.Row) error) error {
	for i, r := range t.rows {
		if err := fn(int64(i), r); err != nil {
			return err
		}
	}
	return nil
}

// SortByColumn physically sorts rows by the given column (clustered
// layout). The reorder bumps the version epoch: row indices shift, so
// anything keyed on the previous epoch (cached estimates, samples) is
// stale.
func (t *Table) SortByColumn(col int) {
	typ := t.schema.Column(col).Type
	slices.SortStableFunc(t.rows, func(a, b value.Row) int {
		return value.CompareValues(typ, a[col], b[col])
	})
	t.Bump()
}

// Shuffle randomizes physical row order with g and bumps the epoch.
func (t *Table) Shuffle(g *rng.RNG) {
	g.Shuffle(len(t.rows), func(i, j int) { t.rows[i], t.rows[j] = t.rows[j], t.rows[i] })
	t.Bump()
}

// PageView adapts the table to sampling.PageSource with a fixed number of
// rows per synthetic page.
type PageView struct {
	t       *Table
	perPage int
}

// AsPageSource groups the table's rows into pages of perPage rows.
func (t *Table) AsPageSource(perPage int) (*PageView, error) {
	if perPage <= 0 {
		return nil, fmt.Errorf("workload: perPage %d must be positive", perPage)
	}
	return &PageView{t: t, perPage: perPage}, nil
}

// NumPages implements sampling.PageSource.
func (p *PageView) NumPages() int {
	return int((p.t.NumRows() + int64(p.perPage) - 1) / int64(p.perPage))
}

// PageRows implements sampling.PageSource.
func (p *PageView) PageRows(i int) ([]value.Row, error) {
	start := int64(i) * int64(p.perPage)
	if start >= p.t.NumRows() {
		return nil, fmt.Errorf("workload: page %d out of range", i)
	}
	end := start + int64(p.perPage)
	if end > p.t.NumRows() {
		end = p.t.NumRows()
	}
	return p.t.rows[start:end], nil
}

// VirtualTable is a generator-backed table that never materializes rows:
// row i is recomputed on demand. It makes the paper's Example 1 (n = 10⁸)
// runnable in constant memory. Virtual tables always have IID (shuffled)
// layout, are immutable, and therefore stay at epoch 0 forever.
type VirtualTable struct {
	catalog.Version
	spec   Spec
	schema *value.Schema
}

var _ catalog.Table = (*VirtualTable)(nil)

// NewVirtual builds a virtual table over spec.
func NewVirtual(spec Spec) (*VirtualTable, error) {
	if spec.N < 0 {
		return nil, fmt.Errorf("workload: negative row count %d", spec.N)
	}
	if len(spec.Cols) == 0 {
		return nil, fmt.Errorf("workload: spec has no columns")
	}
	if spec.Layout != LayoutShuffled {
		return nil, fmt.Errorf("workload: virtual tables support only the shuffled layout")
	}
	schema, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	return &VirtualTable{Version: catalog.NewVersion(), spec: spec, schema: schema}, nil
}

// Name returns the table name.
func (v *VirtualTable) Name() string { return v.spec.Name }

// Schema returns the table schema.
func (v *VirtualTable) Schema() *value.Schema { return v.schema }

// NumRows implements sampling.RowSource.
func (v *VirtualTable) NumRows() int64 { return v.spec.N }

// StableRows marks the table as a sampling.StableRowSource: rows are pure
// functions of the row index, so any sweep is trivially consistent.
func (v *VirtualTable) StableRows() {}

// Row implements sampling.RowSource.
func (v *VirtualTable) Row(i int64) (value.Row, error) {
	if i < 0 || i >= v.spec.N {
		return nil, fmt.Errorf("workload: row %d out of range [0,%d)", i, v.spec.N)
	}
	return v.spec.rowOf(i), nil
}

// Scan iterates all rows; O(1) memory, O(n) time.
func (v *VirtualTable) Scan(fn func(i int64, row value.Row) error) error {
	for i := int64(0); i < v.spec.N; i++ {
		if err := fn(i, v.spec.rowOf(i)); err != nil {
			return err
		}
	}
	return nil
}

// DomainAt exposes the domain index drawn for (row, column), letting stats
// code count distincts over domain indices (bitset) instead of payloads.
func (v *VirtualTable) DomainAt(i int64, col int) int64 { return v.spec.domainOf(i, col) }
