package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"slices"
	"time"
)

// Request kinds. Estimation kinds count toward est_* metrics.
const (
	kindWhatIf   = "whatif"
	kindEstimate = "estimate"
	kindAdvise   = "advise"
	kindInsert   = "insert"
)

// Routes: which table and which evaluation path an estimation request takes.
const (
	routePlain  = "plain"  // static table, uniform sample
	routeStrata = "strata" // static table, strata: 8
	routeShards = "shards" // 4-shard live table that receives no writes
	routeLive   = "live"   // 4-shard live table under writes
)

// auditCodecs are the codecs every audit key list is sized under: the
// additive null-suppression family and three codecs (a page dictionary,
// run-length, prefix) whose SampleCF bias the paper's Theorems 2-3 bound.
var auditCodecs = []string{"nullsuppression", "pagedict+ns", "rle", "prefix"}

// adaptiveCodecs is the adaptive-advise codec mix: the audit codecs plus
// the global dictionary, the slowest adaptive codec.
var adaptiveCodecs = []string{"nullsuppression", "pagedict+ns", "rle", "prefix", "globaldict"}

const (
	coldFraction   = 0.01
	coldStrata     = 8
	targetError    = 0.02
	confidence     = 0.95
	writeBatchRows = 16
	writeMeanGap   = 20 * time.Millisecond
)

// Audit key lists. Plain and strata routes share the static table's lists
// (and so its exact CFs); the sharded routes use three others. Each set
// spans 1-3 column keys. The lists are fixed; the sample seeds of the
// audit requests come from the workload seed.
var (
	auditListsStatic = [][]string{{"product"}, {"customer", "region"}, {"city", "status", "qty"}}
	auditListsLedger = [][]string{{"customer"}, {"region", "day"}, {"status", "price", "city"}}
)

type candidate struct {
	Name    string   `json:"name,omitempty"`
	Columns []string `json:"columns"`
	Codec   string   `json:"codec,omitempty"`
}

type whatIfReq struct {
	Table       string      `json:"table"`
	Candidates  []candidate `json:"candidates"`
	Fraction    float64     `json:"fraction,omitempty"`
	Seed        uint64      `json:"seed,omitempty"`
	Strata      int         `json:"strata,omitempty"`
	TargetError float64     `json:"target_error,omitempty"`
	Confidence  float64     `json:"confidence,omitempty"`
}

type estimateReq struct {
	Table       string   `json:"table"`
	Columns     []string `json:"columns"`
	Codec       string   `json:"codec"`
	Fraction    float64  `json:"fraction,omitempty"`
	Seed        uint64   `json:"seed,omitempty"`
	TargetError float64  `json:"target_error,omitempty"`
	Confidence  float64  `json:"confidence,omitempty"`
}

type query struct {
	Name        string   `json:"name"`
	Columns     []string `json:"columns"`
	Weight      float64  `json:"weight"`
	Selectivity float64  `json:"selectivity"`
}

type adviseReq struct {
	Table       string      `json:"table"`
	Candidates  []candidate `json:"candidates"`
	Queries     []query     `json:"queries"`
	BudgetBytes int64       `json:"budget_bytes"`
	Seed        uint64      `json:"seed,omitempty"`
	TargetError float64     `json:"target_error,omitempty"`
	Confidence  float64     `json:"confidence,omitempty"`
}

// insertReq is the POST /tables/{t}/rows body: values in schema order,
// strings for character columns and numbers for integer columns.
type insertReq struct {
	Rows [][]any `json:"rows"`
}

// op is one generated request. Body is exactly what goes on the wire; the
// typed request beside it drives the in-process replay.
type op struct {
	Kind  string
	Route string
	Path  string
	Body  []byte
	// At is an open-loop request's scheduled send time, from phase start.
	At     time.Duration
	whatif *whatIfReq
	est    *estimateReq
	advise *adviseReq
	insert *insertReq
}

func (o op) estimation() bool { return o.Kind != kindInsert }

// adaptive reports whether the op asks for a precision target.
func (o op) adaptive() bool {
	switch {
	case o.whatif != nil:
		return o.whatif.TargetError > 0
	case o.est != nil:
		return o.est.TargetError > 0
	case o.advise != nil:
		return true
	}
	return false
}

// workloadDef is everything one workload sends, generated from its seed
// before the server starts.
type workloadDef struct {
	name   string
	seed   uint64
	tables []table
	// readers closed-loop connections share reads in order; writes is the
	// open-loop writer's schedule; audit is sent after the timed phase.
	readers int
	reads   []op
	writes  []op
	audit   []op
}

// conns is the workload's connection count: its closed-loop readers plus
// the open-loop writer, if any.
func (w *workloadDef) conns() int {
	if len(w.writes) > 0 {
		return w.readers + 1
	}
	return w.readers
}

var workloadNames = []string{"whatif-cold", "adaptive-advise", "live-mixed"}

// Table shapes. The static table's data is fixed; the workload seed drives
// the traffic only, so every run sizes the same tables.
func staticTable() table {
	return table{name: "wide", n: 250_000, seed: 11, cols: schemaCols}
}

func ledgerTable(n int64) table {
	return table{name: "ledger", n: n, seed: 12, cols: schemaCols, live: true, shardCol: "day", bounds: dayBounds}
}

func routeTable(route string) string {
	if route == routePlain || route == routeStrata {
		return "wide"
	}
	return "ledger"
}

// newRand derives an independent deterministic stream from the workload
// seed and a purpose tag.
func newRand(seed uint64, tag uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, tag*0x9e3779b97f4a7c15+1))
}

// keyLists enumerates the ordered 1-3 column lists over the schema.
func keyLists() [][]string {
	names := make([]string, len(schemaCols))
	for i, c := range schemaCols {
		names[i] = c.name
	}
	var out [][]string
	for a := range names {
		out = append(out, []string{names[a]})
	}
	for a := range names {
		for b := range names {
			if b != a {
				out = append(out, []string{names[a], names[b]})
			}
		}
	}
	for a := range names {
		for b := range names {
			for c := range names {
				if b != a && c != a && c != b {
					out = append(out, []string{names[a], names[b], names[c]})
				}
			}
		}
	}
	return out
}

// keyWidth is a key list's encoded width in bytes: the sort and
// directory cost of a key list grows with it.
func keyWidth(l []string) int {
	w := 0
	for _, name := range l {
		for _, c := range schemaCols {
			if c.name == name {
				w += max(c.charLen, 4)
			}
		}
	}
	return w
}

// balancedPerm is a seeded permutation of lists in which every prefix
// holds narrow and wide keys in proportion, so that how much work a run
// of a given length does depends little on the seed: the lists are ranked
// by key width and cut into blocks of 10, and each round takes one unused
// list from every block, visiting the blocks in a shuffled order.
func balancedPerm(g *rand.Rand, lists [][]string) []int {
	idx := make([]int, len(lists))
	for i := range idx {
		idx[i] = i
	}
	slices.SortStableFunc(idx, func(a, b int) int { return keyWidth(lists[a]) - keyWidth(lists[b]) })
	const block = 10
	var blocks [][]int
	for lo := 0; lo < len(idx); lo += block {
		b := slices.Clone(idx[lo:min(lo+block, len(idx))])
		g.Shuffle(len(b), func(i, j int) { b[i], b[j] = b[j], b[i] })
		blocks = append(blocks, b)
	}
	out := make([]int, 0, len(idx))
	for round := 0; len(out) < len(idx); round++ {
		for _, b := range g.Perm(len(blocks)) {
			if round < len(blocks[b]) {
				out = append(out, blocks[b][round])
			}
		}
	}
	return out
}

// withoutLists drops the given lists from all.
func withoutLists(all [][]string, drop ...[][]string) [][]string {
	var out [][]string
next:
	for _, l := range all {
		for _, d := range drop {
			for _, x := range d {
				if slices.Equal(l, x) {
					continue next
				}
			}
		}
		out = append(out, l)
	}
	return out
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // generated requests hold only strings and numbers
	}
	return b
}

func whatIfOp(route string, r *whatIfReq) op {
	if route == routeStrata {
		r.Strata = coldStrata
	}
	return op{Kind: kindWhatIf, Route: route, Path: "/whatif", Body: mustJSON(r), whatif: r}
}

func estimateOp(route string, r *estimateReq) op {
	return op{Kind: kindEstimate, Route: route, Path: "/estimate", Body: mustJSON(r), est: r}
}

func adviseOp(route string, r *adviseReq) op {
	return op{Kind: kindAdvise, Route: route, Path: "/advise", Body: mustJSON(r), advise: r}
}

func cands(lists [][]string, codecs []string) []candidate {
	var out []candidate
	for _, l := range lists {
		for _, c := range codecs {
			out = append(out, candidate{Columns: l, Codec: c})
		}
	}
	return out
}

// auditOps is the fixed audit set on the given routes: each route's three
// audit lists under the four audit codecs, fixed-r at f = 0.01 with four
// sample seeds, then once adaptively at ±2% / 95%.
func auditOps(seed uint64, routes []string) []op {
	g := newRand(seed, 7)
	var out []op
	for _, route := range routes {
		lists := auditListsStatic
		if routeTable(route) == "ledger" {
			lists = auditListsLedger
		}
		for s := 0; s < 4; s++ {
			out = append(out, whatIfOp(route, &whatIfReq{
				Table: routeTable(route), Candidates: cands(lists, auditCodecs),
				Fraction: coldFraction, Seed: g.Uint64(),
			}))
		}
		out = append(out, whatIfOp(route, &whatIfReq{
			Table: routeTable(route), Candidates: cands(lists, auditCodecs),
			Seed: g.Uint64(), TargetError: targetError, Confidence: confidence,
		}))
	}
	return out
}

// generate builds a workload's complete request sequence from its seed,
// long enough that a run of the given length never exhausts it.
func generate(name string, seed uint64, seconds int) (*workloadDef, error) {
	w := &workloadDef{name: name, seed: seed}
	switch name {
	case "whatif-cold":
		genWhatIfCold(w, 400*seconds)
	case "adaptive-advise":
		genAdaptiveAdvise(w, 150*seconds)
	case "live-mixed":
		genLiveMixed(w, seconds)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// genWhatIfCold: 2 closed-loop clients send fixed-r /whatif batches of
// 2 key lists x 4 codecs, rotating over the three fixed-r routes. Each
// route walks its own seeded permutation of the 400 key lists, taking a
// fresh permutation and a fresh sample seed every cycle, so no request
// ever hits the result cache. Within a cycle a route never repeats a key
// list either, so per-key-list state (the strata directory) is built,
// never reused, at a steady rate until the route's cycle wraps.
func genWhatIfCold(w *workloadDef, batches int) {
	w.tables = []table{staticTable(), ledgerTable(100_000)}
	w.readers = 2
	routes := []string{routePlain, routeStrata, routeShards}
	lists := keyLists()
	perms := make([][]int, len(routes))
	seeds := make([]uint64, len(routes))
	cycles := make([]int, len(routes))
	for len(w.reads) < batches {
		i := len(w.reads) % len(routes)
		if len(perms[i]) == 0 {
			g := newRand(w.seed, uint64(100+1000*i+cycles[i]))
			perms[i], seeds[i] = balancedPerm(g, lists), g.Uint64()
			cycles[i]++
		}
		pair := [][]string{lists[perms[i][0]], lists[perms[i][1]]}
		perms[i] = perms[i][2:]
		w.reads = append(w.reads, whatIfOp(routes[i], &whatIfReq{
			Table: routeTable(routes[i]), Candidates: cands(pair, auditCodecs),
			Fraction: coldFraction, Seed: seeds[i],
		}))
	}
	w.audit = auditOps(w.seed, routes)
}

// genAdaptiveAdvise: 2 closed-loop clients send ±2%/95% asks: adaptive
// /whatif pairs on the plain, strata and sharded routes, and every fourth
// request an /advise session sizing 4 candidates coarse-to-fine. Every
// (route, key list, codec) is dealt at most once per run, because the
// precision cache keys on neither seed nor fraction; the audit lists are
// held out so the audit asks after the timed phase are not answered by
// dominance either. The order candidates are dealt in is the same for
// every workload seed, so how much work a run of a given length does
// depends little on it; the seed drives the sample seeds and the advisor
// sessions' budgets and query weights.
func genAdaptiveAdvise(w *workloadDef, requests int) {
	w.tables = []table{staticTable(), ledgerTable(100_000)}
	w.readers = 2
	lists := withoutLists(keyLists(), auditListsStatic, auditListsLedger)
	pools := map[string][]candidate{}
	for i, route := range []string{routePlain, routeStrata, routeShards} {
		// Five rounds, each a fresh permutation of the key lists: every
		// list appears once per round, so per-key-list state (the strata
		// directory) is built at a steady rate, and round k pairs list l
		// with codec (k+l) mod 5, so each (list, codec) is dealt once.
		g := newRand(0, uint64(200+i))
		var all []candidate
		for k := range adaptiveCodecs {
			for _, l := range balancedPerm(g, lists) {
				all = append(all, candidate{Columns: lists[l], Codec: adaptiveCodecs[(k+l)%len(adaptiveCodecs)]})
			}
		}
		pools[route] = all
	}
	deal := func(route string, k int) []candidate {
		out := pools[route][:k]
		pools[route] = pools[route][k:]
		return out
	}
	g := newRand(w.seed, 300)
	for i := 0; i < requests && len(pools[routePlain]) >= 4; i++ {
		switch route := []string{routePlain, routeStrata, routeShards, "advise"}[i%4]; route {
		case "advise":
			cs := deal(routePlain, 4)
			var qs []query
			for k := range cs {
				cs[k].Name = fmt.Sprintf("ix%d", k)
				qs = append(qs, query{
					Name: fmt.Sprintf("q%d", k), Columns: cs[k].Columns[:1],
					Weight: float64(1 + g.IntN(10)), Selectivity: 0.001 * float64(1+g.IntN(50)),
				})
			}
			w.reads = append(w.reads, adviseOp(routePlain, &adviseReq{
				Table: "wide", Candidates: cs, Queries: qs,
				BudgetBytes: int64(2_000_000 + g.IntN(4_000_000)),
				Seed:        g.Uint64(), TargetError: targetError, Confidence: confidence,
			}))
		default:
			w.reads = append(w.reads, whatIfOp(route, &whatIfReq{
				Table: routeTable(route), Candidates: deal(route, 2),
				Seed: g.Uint64(), TargetError: targetError, Confidence: confidence,
			}))
		}
	}
	w.audit = auditOps(w.seed, []string{routePlain, routeStrata, routeShards})
}

// genLiveMixed: one open-loop writer appends 16-row batches with
// increasing days (so every write lands in the last range shard) at a
// mean gap of 20 ms; one closed-loop reader cycles a fixed set of 16
// fixed-r /estimate asks (8 key lists x 2 codecs) with fixed seeds plus 4
// adaptive asks. The reader's set is the same for every workload seed, so
// how much work a read costs does not depend on it; the seed drives the
// writer's rows and schedule.
func genLiveMixed(w *workloadDef, seconds int) {
	w.tables = []table{ledgerTable(200_000)}
	w.readers = 1
	fixed := newRand(0, 400)
	lists := withoutLists(keyLists(), auditListsLedger)
	perm := fixed.Perm(len(lists))
	var cycle []op
	for k := 0; k < 8; k++ {
		for _, codec := range []string{"nullsuppression", "pagedict+ns"} {
			cycle = append(cycle, estimateOp(routeLive, &estimateReq{
				Table: "ledger", Columns: lists[perm[k]], Codec: codec,
				Fraction: coldFraction, Seed: fixed.Uint64(),
			}))
		}
	}
	for k, codec := range auditCodecs {
		cycle = append(cycle, estimateOp(routeLive, &estimateReq{
			Table: "ledger", Columns: lists[perm[8+k]], Codec: codec,
			Seed: fixed.Uint64(), TargetError: targetError, Confidence: confidence,
		}))
	}
	for len(w.reads) < 4000*seconds {
		w.reads = append(w.reads, cycle...)
	}

	g := newRand(w.seed, 401)
	// The writer's schedule covers the timed phase; rows are drawn from the
	// table's own column domains, with days counting up from dayDomain.
	gens := make([]func() any, len(schemaCols))
	var written int64
	for i, c := range schemaCols {
		c := c
		switch {
		case c.name == "day":
			gens[i] = func() any { written++; return dayDomain + written/4 }
		case c.charLen > 0:
			cg, err := c.gen()
			if err != nil {
				panic(err) // schemaCols is a fixed, valid spec
			}
			gens[i] = func() any { return string(cg.Payload(g.Int64N(c.domain))) }
		default:
			gens[i] = func() any { return g.Int64N(c.domain) }
		}
	}
	var at time.Duration
	for at < time.Duration(seconds)*time.Second {
		rows := make([][]any, writeBatchRows)
		for r := range rows {
			rows[r] = make([]any, len(gens))
			for c, gen := range gens {
				rows[r][c] = gen()
			}
		}
		req := &insertReq{Rows: rows}
		w.writes = append(w.writes, op{
			Kind: kindInsert, Route: routeLive, Path: "/tables/ledger/rows",
			Body: mustJSON(req), At: at, insert: req,
		})
		at += time.Duration(float64(writeMeanGap) * (0.5 + g.Float64()))
	}
	w.audit = auditOps(w.seed, []string{routeLive})
}
