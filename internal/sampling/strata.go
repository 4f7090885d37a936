package sampling

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"sort"

	"samplecf/internal/rng"
	"samplecf/internal/value"
	"samplecf/internal/workgroup"
)

// Stratified draws: the sampling side of variance-directed estimation.
//
// A uniform sample of a skewed table spends most of its rows re-observing
// the hot part of the key domain; partitioning the domain into contiguous
// memcomparable-key ranges (strata) and drawing each range's sub-sample
// independently removes the between-strata component of the estimator's
// variance, and Neyman allocation (n_h ∝ N_h·σ_h) spends rows where the
// residual within-stratum variance is. The pieces here are deliberately
// mechanical — boundaries, a row directory, per-stratum resumable streams,
// an allocator — and composition (weights, variance, confidence intervals)
// stays in internal/stats and internal/core.

// StreamSeed derives sub-stream h's seed from a base seed by a Weyl step,
// the same discipline the engine's shard scatter uses: stream 0 keeps the
// base seed, so a degenerate single-stratum draw is byte-identical to the
// unstratified one keyed by the same seed.
func StreamSeed(seed uint64, stream int) uint64 {
	return seed ^ (uint64(stream) * 0x9e3779b97f4a7c15)
}

// KeyStrata partitions the memcomparable key domain into contiguous ranges
// by H-1 strictly ascending boundary keys: stratum 0 is keys < bounds[0],
// stratum h is [bounds[h-1], bounds[h]), and the last stratum is keys ≥
// bounds[H-2]. Zero boundaries is the degenerate single stratum.
type KeyStrata struct {
	bounds [][]byte
}

// NewKeyStrata validates that bounds ascend strictly and returns the
// partition they induce. The boundary slices are retained, not copied.
func NewKeyStrata(bounds [][]byte) (*KeyStrata, error) {
	for i := 1; i < len(bounds); i++ {
		if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
			return nil, fmt.Errorf("sampling: stratum boundaries %d and %d are not strictly ascending", i-1, i)
		}
	}
	return &KeyStrata{bounds: bounds}, nil
}

// NumStrata returns H.
func (s *KeyStrata) NumStrata() int { return len(s.bounds) + 1 }

// Boundaries returns the boundary keys (aliased, not copied).
func (s *KeyStrata) Boundaries() [][]byte { return s.bounds }

// StratumOf returns the stratum index of a key: the number of boundaries ≤
// key.
func (s *KeyStrata) StratumOf(key []byte) int {
	return sort.Search(len(s.bounds), func(i int) bool {
		return bytes.Compare(s.bounds[i], key) > 0
	})
}

// EquiDepthBoundaries derives up to h-1 ascending boundary keys splitting a
// sorted key sequence into near-equal-count ranges: key(i) must be
// non-decreasing in i. Boundary candidates that collide with the sequence
// minimum or with an earlier boundary are dropped — a duplicate-heavy
// domain supports fewer distinct cut points than requested, and an empty
// stratum would contribute nothing but allocation floor rows — so the
// result may induce fewer than h strata. Each boundary is a fresh copy.
func EquiDepthBoundaries(n, h int, key func(i int) []byte) [][]byte {
	if n <= 0 || h <= 1 {
		return nil
	}
	var bounds [][]byte
	prev := key(0)
	for j := 1; j < h; j++ {
		idx := j * n / h
		if idx <= 0 || idx >= n {
			continue
		}
		b := key(idx)
		if bytes.Compare(b, prev) <= 0 {
			continue
		}
		bounds = append(bounds, append([]byte(nil), b...))
		prev = bounds[len(bounds)-1]
	}
	return bounds
}

// StrataDirectory buckets every row index of a table by key-range stratum:
// the per-stratum random-access view stratified draws need. All strata
// share one exactly-sized []uint32 index array — 4 bytes per table row
// resident, which caps a directory at 2³²−1 rows — and rows[h] is stratum
// h's sub-slice of it. Building it costs one O(n) classify scan plus a
// counting-sort layout pass; the engine caches directories per (table
// version, key columns, strata count) so the build amortizes across the
// what-if traffic that reuses them.
type StrataDirectory struct {
	strata *KeyStrata
	rows   [][]uint32 // rows[h] = row indices of stratum h, ascending
	total  int64
}

// BuildStrataDirectory scans src's rows in order and buckets each row index
// by the key range its index key falls in. The index key is the
// memcomparable encoding (value.EncodeKey) of the row projected to the key
// columns: key column c is source column project[c], typed by keySchema.
//
// The scan never encodes a key in the common case: it compares an 8-byte
// abbreviated prefix of the row's key, assembled column-wise, with the
// boundaries' precomputed prefixes (both zero-extended, so boundaries of
// any length compare soundly). Only a prefix tie falls back to an exact
// comparison of the full key, encoded column-wise into the bytes
// value.EncodeKey produces, with the tied boundaries. Every key column's
// payload length is still checked on every row, so a row EncodeKey would
// reject fails the build with the same value.ValidateRow error. A counting
// sort then lays the rows out stratum by stratum in one index array
// (layoutStrata, chunk-parallel on a StableRowSource). Within a stratum,
// row indices stay in table order — with a single stratum the directory is
// the identity over [0, n), which is what keeps degenerate stratified
// draws byte-identical to uniform ones.
func BuildStrataDirectory(src RowSource, ks *KeyStrata, keySchema *value.Schema, project []int) (*StrataDirectory, error) {
	n := src.NumRows()
	if n == 0 {
		return nil, fmt.Errorf("sampling: source is empty")
	}
	if n > math.MaxUint32 {
		return nil, fmt.Errorf("sampling: %d rows exceed the strata directory's 2^32-1 row limit", n)
	}
	if len(project) != keySchema.NumColumns() {
		return nil, fmt.Errorf("sampling: %d projected columns for a %d-column key", len(project), keySchema.NumColumns())
	}
	h := ks.NumStrata()
	d := &StrataDirectory{strata: ks, total: n}
	var err error
	switch {
	case h == 1:
		idx := make([]uint32, n)
		for i := range idx {
			idx[i] = uint32(i)
		}
		d.rows = [][]uint32{idx}
	case h <= math.MaxUint8+1:
		d.rows, err = layoutStrata[uint8](src, h, newClassifier(ks, keySchema, project))
	default:
		d.rows, err = layoutStrata[uint32](src, h, newClassifier(ks, keySchema, project))
	}
	if err != nil {
		return nil, err
	}
	return d, nil
}

// chunkRows is the stratify scan's parallel grain: a scan-stable source
// splits into one contiguous chunk per worker-group slot it can fill with
// at least this many rows.
const chunkRows = 32 << 10

// layoutStrata classifies every row of src into a per-row stratum scratch
// (one byte per row up to 256 strata, four past it), then places the row
// indices by counting sort: the classify pass counts, a prefix sum turns
// counts into start positions, and one stable placement pass fills the
// single index array the strata slice.
//
// A StableRowSource splits [0, n) into up to workgroup.Limit(n/chunkRows)
// contiguous chunks that classify and place in parallel, each with its own
// classifier clone and per-stratum counts. The prefix sum runs stratum-
// major, then chunk by chunk, so chunk c's rows of stratum s land right
// after chunk c-1's: the layout is exactly the sequential one. Errors
// report in chunk order, so the first bad row's error is the one returned.
// Any other source scans as one chunk.
func layoutStrata[S uint8 | uint32](src RowSource, h int, cl *classifier) ([][]uint32, error) {
	n := int(src.NumRows())
	chunks := 1
	if _, ok := src.(StableRowSource); ok {
		chunks = workgroup.Limit(n / chunkRows)
	}
	lo := func(c int) int { return c * n / chunks } // chunk c is [lo(c), lo(c+1))
	// counts[c*stride+s] is chunk c's row count in stratum s, later its next
	// write position; a cache line of padding separates the chunks' ranges.
	stride := h + 8
	counts := make([]int, chunks*stride)
	of := make([]S, n)
	errs := make([]error, chunks)
	workgroup.Each(chunks, func(c int) {
		defer workgroup.Recover(&errs[c])
		ccl := cl
		if c > 0 {
			ccl = cl.clone()
		}
		errs[c] = classifyChunk(src, ccl, lo(c), of[lo(c):lo(c+1)], counts[c*stride:c*stride+h])
	})
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	idx := make([]uint32, n)
	rows := make([][]uint32, h)
	pos := 0
	for s := 0; s < h; s++ {
		start := pos
		for c := 0; c < chunks; c++ {
			k := c*stride + s
			counts[k], pos = pos, pos+counts[k]
		}
		rows[s] = idx[start:pos:pos]
	}
	workgroup.Each(chunks, func(c int) {
		defer workgroup.Recover(&errs[c])
		placeChunk(idx, lo(c), of[lo(c):lo(c+1)], counts[c*stride:c*stride+h])
	})
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return rows, nil
}

// classifyChunk classifies the rows [lo, lo+len(of)) of src into of,
// counting each stratum's rows in counts.
func classifyChunk[S uint8 | uint32](src RowSource, cl *classifier, lo int, of []S, counts []int) error {
	for i := range of {
		row, err := src.Row(int64(lo + i))
		if err != nil {
			return fmt.Errorf("sampling: row fetch: %w", err)
		}
		s, err := cl.stratumOf(row)
		if err != nil {
			return fmt.Errorf("sampling: encode stratum key: %w", err)
		}
		of[i] = S(s)
		counts[s]++
	}
	return nil
}

// placeChunk writes the row indices [lo, lo+len(of)) into idx at their
// strata's next write positions, advancing next.
func placeChunk[S uint8 | uint32](idx []uint32, lo int, of []S, next []int) {
	for i, s := range of {
		idx[next[s]] = uint32(lo + i)
		next[s]++
	}
}

// classifier maps rows to strata through abbreviated keys: the first 8
// bytes of a row's memcomparable key, as a big-endian uint64, against the
// boundaries' prefixes (prefix). Boundaries ascend strictly, so their
// prefixes are non-decreasing; a key prefix strictly between two boundary
// prefixes settles the stratum, and only a key prefix equal to some
// boundary's needs the exact compare.
type classifier struct {
	bounds [][]byte
	prefix []uint64
	schema *value.Schema
	cols   []keyCol
	tmpl   []byte  // an encoded key of empty payloads: CHAR pad bytes, zeros elsewhere
	win    [8]byte // tmpl's prefix window, zero-extended
	key    []byte  // the tie path's encoded key, reused across rows
}

// keyCol is one key column's place in the encoded key: source column src,
// payload check (at most maxLen bytes, exactly maxLen for integers), byte
// offset off, and the take bytes it contributes to the 8-byte prefix
// window (0 for columns that start past it).
type keyCol struct {
	src       int
	maxLen    int
	isInt     bool
	off, take int
}

func newClassifier(ks *KeyStrata, schema *value.Schema, project []int) *classifier {
	cl := &classifier{
		bounds: ks.bounds,
		prefix: make([]uint64, len(ks.bounds)),
		schema: schema,
		cols:   make([]keyCol, len(project)),
	}
	for i, b := range ks.bounds {
		cl.prefix[i] = abbrev(b)
	}
	for c, p := range project {
		t := schema.Column(c).Type
		off := len(cl.tmpl)
		cl.cols[c] = keyCol{src: p, maxLen: t.FixedWidth(), isInt: !t.IsCharacter(), off: off,
			take: max(min(off+t.FixedWidth(), 8)-off, 0)}
		for j := 0; j < t.FixedWidth(); j++ {
			cl.tmpl = append(cl.tmpl, t.PadByte())
		}
	}
	copy(cl.win[:], cl.tmpl)
	cl.key = make([]byte, len(cl.tmpl))
	return cl
}

// clone returns a classifier sharing cl's read-only tables with its own
// tie-path scratch, for a concurrent scan chunk. The scratch's capacity is
// a multiple of 64 bytes, which puts it in a cache-line-aligned size class
// with no other chunk's scratch on its lines.
func (cl *classifier) clone() *classifier {
	c := *cl
	c.key = make([]byte, len(cl.key), (len(cl.key)+127)&^63)
	return &c
}

// abbrev returns the first 8 bytes of key, zero-extended, as a big-endian
// uint64. Zero-extension keeps prefix order sound for keys of any length:
// abbrev(a) < abbrev(b) implies a < b, and only equal prefixes leave the
// order open.
func abbrev(key []byte) uint64 {
	var b [8]byte
	copy(b[:], key)
	return binary.BigEndian.Uint64(b[:])
}

// stratumOf returns row's stratum, or the error value.EncodeKey reports for
// a row whose key-column payloads do not fit the key schema.
func (cl *classifier) stratumOf(row value.Row) (int, error) {
	w := cl.win
	for _, c := range cl.cols {
		v := row[c.src]
		if len(v) > c.maxLen || (c.isInt && len(v) != c.maxLen) {
			return 0, cl.invalid(row)
		}
		if c.take > 0 {
			// CHAR payloads shorter than the window keep win's pad bytes;
			// integers flip the sign bit like EncodeKey.
			copy(w[c.off:c.off+c.take], v)
			if c.isInt {
				w[c.off] ^= 0x80
			}
		}
	}
	k := binary.BigEndian.Uint64(w[:])
	s := countBelow(cl.prefix, k)
	if s < len(cl.prefix) && cl.prefix[s] == k {
		return cl.tie(row, s, k), nil
	}
	return s, nil
}

// tie settles a row whose key prefix k equals boundary s's: it encodes the
// full key column by column (the bytes value.EncodeKey produces, payloads
// already checked) and counts the prefix-tied boundaries ≤ the key — all
// boundaries before s are below it and all past the tied run above.
func (cl *classifier) tie(row value.Row, s int, k uint64) int {
	key := cl.key
	copy(key, cl.tmpl)
	for _, c := range cl.cols {
		copy(key[c.off:], row[c.src])
		if c.isInt {
			key[c.off] ^= 0x80
		}
	}
	for s < len(cl.prefix) && cl.prefix[s] == k && bytes.Compare(cl.bounds[s], key) <= 0 {
		s++
	}
	return s
}

// invalid returns value.ValidateRow's error for the projected row.
func (cl *classifier) invalid(row value.Row) error {
	krow := make(value.Row, len(cl.cols))
	for i, c := range cl.cols {
		krow[i] = row[c.src]
	}
	return value.ValidateRow(cl.schema, krow)
}

// countBelow returns how many entries of the non-decreasing p are < k, by
// a binary search whose probe sequence depends only on len(p): each step
// advances the base by the borrow of one subtraction instead of branching
// on the comparison.
func countBelow(p []uint64, k uint64) int {
	base, n := 0, len(p)
	for n > 1 {
		half := n / 2
		_, lt := bits.Sub64(p[base+half-1], k, 0)
		base += half * int(lt)
		n -= half
	}
	if n == 1 {
		_, lt := bits.Sub64(p[base], k, 0)
		base += int(lt)
	}
	return base
}

// NumStrata returns H.
func (d *StrataDirectory) NumStrata() int { return len(d.rows) }

// Strata returns the key partition the directory was built over.
func (d *StrataDirectory) Strata() *KeyStrata { return d.strata }

// NumRows returns the total row count across strata.
func (d *StrataDirectory) NumRows() int64 { return d.total }

// Counts returns the per-stratum population sizes N_h (a fresh slice).
func (d *StrataDirectory) Counts() []int64 {
	out := make([]int64, len(d.rows))
	for h, r := range d.rows {
		out[h] = int64(len(r))
	}
	return out
}

// WRInto draws r rows uniformly with replacement from stratum h, encoding
// each straight into the arena — the fixed-size stratified draw, one
// sampling.draw fault-point hit per call (ExtendWRInto included). The g
// stream is caller-owned (one rng.New(StreamSeed(seed, h)) per stratum), so
// with a single identity stratum the draw sequence is exactly UniformWRInto's.
func (d *StrataDirectory) WRInto(src RowSource, h int, r int64, g *rng.RNG, ar *value.RecordArena) error {
	if err := drawPoint.Check(); err != nil {
		return err
	}
	idx := d.rows[h]
	if len(idx) == 0 {
		return fmt.Errorf("sampling: stratum %d is empty", h)
	}
	if r < 0 {
		return fmt.Errorf("sampling: negative sample size %d", r)
	}
	nh := int64(len(idx))
	for i := int64(0); i < r; i++ {
		row, err := src.Row(int64(idx[g.Int63n(nh)]))
		if err != nil {
			return fmt.Errorf("sampling: row fetch: %w", err)
		}
		if err := ar.Append(row); err != nil {
			return fmt.Errorf("sampling: encode row: %w", err)
		}
	}
	metricRowsDrawn.Add(uint64(r))
	return nil
}

// ExtendWRInto appends `extra` rows drawn uniformly with replacement from
// stratum h — round `round` of the stratum's resumable draw keyed by seed,
// the per-stratum analogue of the package-level ExtendWRInto. Callers
// derive per-stratum seeds (StreamSeed) so the strata's streams are
// mutually independent, and rounds of one stream never redraw earlier
// rounds' rows.
func (d *StrataDirectory) ExtendWRInto(src RowSource, h int, ar *value.RecordArena,
	extra int64, seed uint64, round int) error {
	if round < 0 {
		return fmt.Errorf("sampling: negative round %d", round)
	}
	if extra < 0 {
		return fmt.Errorf("sampling: negative extension size %d", extra)
	}
	return d.WRInto(src, h, extra, rng.New(seed).Derive(uint64(round)), ar)
}

// WORExtend draws `extra` distinct rows of stratum h that no earlier round
// picked — round `round` of the stratum's resumable without-replacement
// stream keyed by seed — returning their table-global row indices and
// recording the stratum-local picks in chosen (one chosen set per stratum,
// caller-kept across rounds).
func (d *StrataDirectory) WORExtend(h int, extra int64, seed uint64, round int,
	chosen map[int64]struct{}) ([]int64, error) {
	idx := d.rows[h]
	local, err := WORExtendIndices(int64(len(idx)), extra, seed, round, chosen)
	if err != nil {
		return nil, err
	}
	out := make([]int64, len(local))
	for i, l := range local {
		out[i] = int64(idx[l])
	}
	return out, nil
}

// Allocate splits a total sample size across strata in proportion to
// scores, rounding by largest remainder (stratum index breaks ties, so the
// split is deterministic) and flooring every stratum with a positive count
// at one row — the stratified estimate must cover every non-empty stratum
// to stay unbiased, and a one-row floor is the cheapest cover (when total
// is below the non-empty stratum count the allocation overshoots total).
// A nil or all-zero scores slice falls back to allocation proportional to
// counts.
func Allocate(total int64, counts []int64, scores []float64) []int64 {
	out := make([]int64, len(counts))
	var countTotal int64
	for _, c := range counts {
		countTotal += c
	}
	if countTotal == 0 {
		return out
	}
	var scoreTotal float64
	for _, s := range scores {
		scoreTotal += s
	}
	exactShare := func(h int) float64 {
		if scores == nil || scoreTotal == 0 {
			return float64(total) * float64(counts[h]) / float64(countTotal)
		}
		return float64(total) * scores[h] / scoreTotal
	}
	type rem struct {
		frac    float64
		stratum int
	}
	rems := make([]rem, 0, len(counts))
	var used int64
	for h, c := range counts {
		if c == 0 {
			continue
		}
		exact := exactShare(h)
		base := int64(exact)
		out[h] = base
		used += base
		rems = append(rems, rem{frac: exact - float64(base), stratum: h})
	}
	sort.Slice(rems, func(i, j int) bool {
		if rems[i].frac != rems[j].frac {
			return rems[i].frac > rems[j].frac
		}
		return rems[i].stratum < rems[j].stratum
	})
	for left := total - used; left > 0 && len(rems) > 0; left-- {
		out[rems[0].stratum]++
		rems = rems[1:]
	}
	for h, c := range counts {
		if c > 0 && out[h] == 0 {
			out[h] = 1
		}
	}
	return out
}

// NeymanAllocate splits a total sample size across strata by Neyman
// allocation, n_h ∝ N_h·σ_h: rows go where population mass times
// within-stratum estimator spread is, which minimizes the composed
// stratified variance for a fixed total. Strata whose σ_h is zero (or
// unknown — all zeros) degrade gracefully to proportional allocation.
func NeymanAllocate(total int64, counts []int64, sigmas []float64) []int64 {
	scores := make([]float64, len(counts))
	any := false
	for h, c := range counts {
		if h < len(sigmas) && sigmas[h] > 0 {
			scores[h] = float64(c) * sigmas[h]
			any = true
		}
	}
	if !any {
		scores = nil
	}
	return Allocate(total, counts, scores)
}
