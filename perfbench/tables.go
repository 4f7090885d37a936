package main

import (
	"encoding/json"
	"fmt"

	"samplecf/internal/db"
	"samplecf/internal/distrib"
	"samplecf/internal/value"
	"samplecf/internal/workload"
)

// column is one generated column, held in a form that renders both the
// wire spec POST /tables parses and the in-process workload generator, so
// the server and the in-process replay build the same rows.
type column struct {
	name    string
	charLen int // 0 = int32
	domain  int64
	theta   float64 // 0 = uniform
	lenLo   int
	lenHi   int
	seed    uint64
}

// table is one benchmark table: the static (immutable) or live (db-backed,
// range-sharded on shardCol) shape cfserve registers.
type table struct {
	name     string
	n        int64
	seed     uint64
	cols     []column
	live     bool
	shardCol string
	bounds   []int32 // range bounds on shardCol; len = shards-1
}

// The schema every benchmark table uses: eight columns of mixed width and
// skew, so the 400 ordered 1-3 column key lists span narrow and wide keys,
// low and high distinct counts, and uniform and zipf value frequencies.
// "day" is the date-like key live tables are range-sharded on.
var schemaCols = []column{
	{name: "region", charLen: 16, domain: 50, lenLo: 4, lenHi: 12, seed: 1},
	{name: "city", charLen: 24, domain: 2000, theta: 0.8, lenLo: 6, lenHi: 20, seed: 2},
	{name: "product", charLen: 40, domain: 20000, theta: 0.7, lenLo: 10, lenHi: 30, seed: 3},
	{name: "customer", charLen: 32, domain: 100000, lenLo: 8, lenHi: 24, seed: 4},
	{name: "status", charLen: 8, domain: 6, lenLo: 3, lenHi: 8, seed: 5},
	{name: "qty", domain: 500},
	{name: "price", domain: 10000, theta: 0.9},
	{name: "day", domain: dayDomain},
}

// dayDomain is the day column's domain at registration; live inserts use
// days at and beyond it, so they land in the last range shard.
const dayDomain = 3650

// dayBounds cut [0, dayDomain) into four equal range shards.
var dayBounds = []int32{dayDomain / 4, dayDomain / 2, 3 * dayDomain / 4}

func (c column) wire() map[string]any {
	m := map[string]any{"name": c.name}
	if c.charLen > 0 {
		m["type"] = fmt.Sprintf("char:%d", c.charLen)
		m["len"] = fmt.Sprintf("uniform:%d:%d", c.lenLo, c.lenHi)
		m["seed"] = c.seed
	} else {
		m["type"] = "int32"
	}
	if c.theta > 0 {
		m["dist"] = fmt.Sprintf("zipf:%d:%g", c.domain, c.theta)
	} else {
		m["dist"] = fmt.Sprintf("uniform:%d", c.domain)
	}
	return m
}

func (c column) gen() (workload.ColumnGen, error) {
	var d distrib.Discrete = distrib.NewUniform(c.domain)
	if c.theta > 0 {
		d = distrib.NewZipf(c.domain, c.theta)
	}
	if c.charLen > 0 {
		return workload.NewStringColumn(value.Char(c.charLen), d, distrib.NewUniformLen(c.lenLo, c.lenHi), c.seed)
	}
	return workload.NewIntColumn(value.Int32(), d, 0)
}

// specJSON is the POST /tables body.
func (t table) specJSON() []byte {
	cols := make([]map[string]any, len(t.cols))
	for i, c := range t.cols {
		cols[i] = c.wire()
	}
	m := map[string]any{"name": t.name, "n": t.n, "seed": t.seed, "cols": cols}
	if t.live {
		m["live"] = true
		m["shards"] = len(t.bounds) + 1
		m["shard_by"] = "range"
		m["shard_column"] = t.shardCol
		m["shard_bounds"] = t.bounds
	}
	b, err := json.Marshal(m)
	if err != nil {
		panic(err) // only maps of strings and numbers
	}
	return b
}

func (t table) workloadSpec() (workload.Spec, error) {
	cols := make([]workload.SpecColumn, len(t.cols))
	for i, c := range t.cols {
		g, err := c.gen()
		if err != nil {
			return workload.Spec{}, fmt.Errorf("table %s column %s: %w", t.name, c.name, err)
		}
		cols[i] = workload.SpecColumn{Name: c.name, Gen: g}
	}
	return workload.Spec{Name: t.name, N: t.n, Seed: t.seed, Cols: cols}, nil
}

// build materializes the table in-process the way cfserve does: static
// tables through workload.Generate, live ones as a range-sharded db table
// seeded row by row through the partitioner.
func (t table) build() (catalogTable, error) {
	spec, err := t.workloadSpec()
	if err != nil {
		return nil, err
	}
	if !t.live {
		return workload.Generate(spec)
	}
	st, err := t.newSharded(db.New(0))
	if err != nil {
		return nil, err
	}
	gen, err := workload.NewVirtual(spec)
	if err != nil {
		return nil, err
	}
	err = gen.Scan(func(_ int64, row value.Row) error {
		_, err := st.Insert(row)
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("table %s: seed rows: %w", t.name, err)
	}
	return st, nil
}

// newSharded creates the empty range-sharded table t describes.
func (t table) newSharded(d *db.Database) (*db.ShardedTable, error) {
	spec, err := t.workloadSpec()
	if err != nil {
		return nil, err
	}
	schema, err := spec.Schema()
	if err != nil {
		return nil, err
	}
	bounds := make([][]byte, len(t.bounds))
	for i, b := range t.bounds {
		bounds[i] = value.IntValue(b)
	}
	return d.CreateShardedTable(t.name, schema, db.ShardSpec{
		Shards: len(t.bounds) + 1, Column: t.shardCol, By: db.ShardByRange, Bounds: bounds,
	})
}
