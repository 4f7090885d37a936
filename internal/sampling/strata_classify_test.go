package sampling

import (
	"bytes"
	"slices"
	"testing"

	"samplecf/internal/rng"
	"samplecf/internal/value"
)

// stratumCase is one randomized directory build: a source table whose key
// columns sit at shuffled positions among non-key columns, and a partition
// of the key domain.
type stratumCase struct {
	src       SliceSource
	keySchema *value.Schema
	project   []int
	ks        *KeyStrata
}

// classifyAlphabet mixes bytes below, at, and above both pad bytes (0 for
// VARCHAR, ' ' for CHAR) so payloads with embedded and trailing spaces,
// tabs, and '!' straddle the padded comparison.
var classifyAlphabet = []byte{0x00, 0x01, '\t', ' ', ' ', '!', 'a', 'b', 'z', 0x7f, 0x80, 0xff}

func randomKeyType(g *rng.RNG) value.Type {
	switch g.Intn(4) {
	case 0:
		return value.Char(1 + g.Intn(12))
	case 1:
		return value.VarChar(1 + g.Intn(12))
	case 2:
		return value.Int32()
	default:
		return value.Int64()
	}
}

// randomPayload draws a valid payload of type t; character bytes come from
// alphabet.
func randomPayload(g *rng.RNG, t value.Type, alphabet []byte) []byte {
	switch t.Kind {
	case value.KindInt32:
		v := []int32{0, -1, 1, -1 << 31, 1<<31 - 1, int32(g.Uint32())}[g.Intn(6)]
		return value.IntValue(v)
	case value.KindInt64:
		v := []int64{0, -1, 1, -1 << 63, 1<<63 - 1, int64(g.Uint64())}[g.Intn(6)]
		return value.Int64Value(v)
	}
	p := make([]byte, g.Intn(t.Length+1))
	for i := range p {
		p[i] = alphabet[g.Intn(len(alphabet))]
	}
	return p
}

// randomStratumCase builds n rows over 1-3 random key columns plus up to
// two non-key columns, and at most maxBounds distinct boundaries: encoded
// row keys, truncated (the short separators a btree walk yields) or
// extended past the key width, plus random short byte strings.
func randomStratumCase(t testing.TB, g *rng.RNG, n, maxBounds int, alphabet []byte) stratumCase {
	t.Helper()
	nkey, nextra := 1+g.Intn(3), g.Intn(3)
	cols := make([]value.Column, nkey+nextra)
	for i := range cols {
		cols[i] = value.Column{Name: string(rune('a' + i)), Type: randomKeyType(g)}
	}
	perm := make([]int, len(cols)) // source position of column i
	for i := range perm {
		perm[i] = i
	}
	for i := len(perm) - 1; i > 0; i-- {
		j := g.Intn(i + 1)
		perm[i], perm[j] = perm[j], perm[i]
	}
	srcCols := make([]value.Column, len(cols))
	for i, c := range cols {
		srcCols[perm[i]] = c
	}
	keySchema := value.MustSchema(cols[:nkey]...)
	rows := make([]value.Row, n)
	for i := range rows {
		row := make(value.Row, len(cols))
		for c, col := range srcCols {
			row[c] = randomPayload(g, col.Type, alphabet)
		}
		rows[i] = row
	}
	sc := stratumCase{src: SliceSource(rows), keySchema: keySchema, project: perm[:nkey]}
	var bounds [][]byte
	for len(bounds) < maxBounds {
		var b []byte
		if g.Intn(4) == 0 {
			b = randomPayload(g, value.VarChar(10), alphabet)
		} else {
			b = sc.oracleKey(t, rows[g.Intn(n)])
			switch g.Intn(3) {
			case 0:
				b = b[:g.Intn(len(b)+1)]
			case 1:
				b = append(b, randomPayload(g, value.VarChar(3), alphabet)...)
			}
		}
		bounds = append(bounds, b)
	}
	sc.ks = ascendingStrata(t, bounds)
	return sc
}

// ascendingStrata sorts and dedupes bounds into a partition.
func ascendingStrata(t testing.TB, bounds [][]byte) *KeyStrata {
	t.Helper()
	slices.SortFunc(bounds, bytes.Compare)
	bounds = slices.CompactFunc(bounds, bytes.Equal)
	ks, err := NewKeyStrata(bounds)
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// oracleKey is the index key the classifier must agree with: EncodeKey of
// the projected row.
func (sc stratumCase) oracleKey(t testing.TB, row value.Row) []byte {
	t.Helper()
	krow := make(value.Row, len(sc.project))
	for i, p := range sc.project {
		krow[i] = row[p]
	}
	key, err := value.EncodeKey(sc.keySchema, krow, nil)
	if err != nil {
		t.Fatal(err)
	}
	return key
}

// check builds the directory and compares it, and the classifier row by
// row, with KeyStrata.StratumOf over the encoded keys.
func (sc stratumCase) check(t testing.TB) {
	t.Helper()
	h := sc.ks.NumStrata()
	want := make([][]uint32, h)
	cl := newClassifier(sc.ks, sc.keySchema, sc.project)
	for i, row := range sc.src {
		s := sc.ks.StratumOf(sc.oracleKey(t, row))
		if got, err := cl.stratumOf(row); err != nil || got != s {
			t.Fatalf("H=%d row %d %q: classifier says stratum %d (err %v), StratumOf %d",
				h, i, row, got, err, s)
		}
		want[s] = append(want[s], uint32(i))
	}
	dir, err := BuildStrataDirectory(sc.src, sc.ks, sc.keySchema, sc.project)
	if err != nil {
		t.Fatal(err)
	}
	if dir.NumStrata() != h {
		t.Fatalf("directory has %d strata, want %d", dir.NumStrata(), h)
	}
	for s := range want {
		if !slices.Equal(dir.rows[s], want[s]) {
			t.Fatalf("H=%d stratum %d: directory rows %v, want %v", h, s, dir.rows[s], want[s])
		}
	}
}

// TestStrataClassifierMatchesStratumOf is the abbreviated-key classifier's
// equivalence property: over random key layouts (CHAR payloads around the
// pad byte, VARCHAR, signed INT/BIGINT), boundaries shorter and longer than
// the key width, and H from 2 past the uint8 and uint16 stratum-scratch
// widths, every row lands where StratumOf on its encoded key puts it, and
// the directory lists each stratum's rows in table order.
func TestStrataClassifierMatchesStratumOf(t *testing.T) {
	g := rng.New(13)
	for i := 0; i < 300; i++ {
		randomStratumCase(t, g, 300, 1+g.Intn(40), classifyAlphabet).check(t)
	}
	// Many strata: random short boundaries over the full byte range.
	for _, nb := range []int{300, 70_000} {
		sc := randomStratumCase(t, g, 2000, 0, classifyAlphabet)
		bounds := make([][]byte, nb+nb/4)
		for j := range bounds {
			bounds[j] = make([]byte, 3+g.Intn(4))
			for k := range bounds[j] {
				bounds[j][k] = byte(g.Uint32())
			}
		}
		sc.ks = ascendingStrata(t, bounds)
		if sc.ks.NumStrata() <= nb {
			t.Fatalf("only %d distinct boundaries", sc.ks.NumStrata()-1)
		}
		sc.check(t)
	}
}

// TestStrataCountBelow pins the branch-free search against a linear count.
func TestStrataCountBelow(t *testing.T) {
	g := rng.New(5)
	for n := 0; n < 40; n++ {
		p := make([]uint64, n)
		for i := range p {
			p[i] = g.Uint64n(16)
		}
		slices.Sort(p)
		for k := uint64(0); k <= 17; k++ {
			want := 0
			for _, x := range p {
				if x < k {
					want++
				}
			}
			if got := countBelow(p, k); got != want {
				t.Fatalf("countBelow(%v, %d) = %d, want %d", p, k, got, want)
			}
		}
	}
}

// FuzzStratumOf cross-checks the classifier and directory layout against
// StratumOf on encoded keys. The fuzzer controls boundaries (data cut at
// 0xFE bytes, so short, long, and zero-padded separators all occur, beside
// up to seven derived from row keys to force prefix ties), the payload
// alphabet (data's bytes), and the key layout (seed).
func FuzzStratumOf(f *testing.F) {
	f.Add(uint64(1), []byte("a \xfeab\xfe!\t"))
	f.Add(uint64(2), []byte{0x80, 0, 0, 0, 0xfe, 0x7f, 0xff, 0xff, 0xff})
	f.Add(uint64(3), []byte("        \xfe       !\xfe        \x00"))
	f.Add(uint64(4), []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xfe, 0, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		g := rng.New(seed)
		alphabet := classifyAlphabet
		if len(data) > 0 {
			alphabet = data
		}
		sc := randomStratumCase(t, g, 200, int(seed%8), alphabet)
		bounds := append(bytes.Split(data, []byte{0xfe}), sc.ks.Boundaries()...)
		sc.ks = ascendingStrata(t, bounds)
		sc.check(t)
	})
}
