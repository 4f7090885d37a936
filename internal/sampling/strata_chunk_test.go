package sampling

import (
	"fmt"
	"runtime"
	"slices"
	"testing"

	"samplecf/internal/value"
	"samplecf/internal/workgroup"
)

// stableSlice is a SliceSource marked scan-stable, so directory builds over
// it take the chunk-parallel scan; a bare SliceSource scans as one chunk.
type stableSlice struct{ SliceSource }

func (stableSlice) StableRows() {}

// failingStable is a scan-stable source whose Row fails at one index.
type failingStable struct {
	stableSlice
	bad int64
}

func (s failingStable) Row(i int64) (value.Row, error) {
	if i == s.bad {
		return nil, fmt.Errorf("row %d unreadable", i)
	}
	return s.stableSlice.Row(i)
}

// chunkedRows builds n rows keyed (status CHAR(8), id INT): four statuses
// that fill the 8-byte prefix window, so nearly every row ties a
// boundary's prefix and settles on the exact-compare path. A non-key
// column sits between them to exercise the projection.
func chunkedRows(n int) (SliceSource, *value.Schema, []int) {
	statuses := []string{"active__", "closed__", "pending_", "shipped_"}
	rows := make([]value.Row, n)
	for i := range rows {
		rows[i] = value.Row{
			value.StringValue(statuses[(i*7)%len(statuses)]),
			value.StringValue("x"),
			value.IntValue(int32((i * 7919) % 50021)),
		}
	}
	keySchema := value.MustSchema(
		value.Column{Name: "status", Type: value.Char(8)},
		value.Column{Name: "id", Type: value.Int32()},
	)
	return SliceSource(rows), keySchema, []int{0, 2}
}

// equiDepthStrata cuts the source's sorted encoded keys into h equi-depth
// strata.
func equiDepthStrata(t *testing.T, src SliceSource, keySchema *value.Schema, project []int, h int) *KeyStrata {
	t.Helper()
	keys := make([][]byte, len(src))
	for i, row := range src {
		k, err := value.EncodeKey(keySchema, value.Row{row[project[0]], row[project[1]]}, nil)
		if err != nil {
			t.Fatal(err)
		}
		keys[i] = k
	}
	slices.SortFunc(keys, func(a, b []byte) int { return slices.Compare(a, b) })
	ks, err := NewKeyStrata(EquiDepthBoundaries(len(keys), h, func(i int) []byte { return keys[i] }))
	if err != nil {
		t.Fatal(err)
	}
	return ks
}

// withChunks raises GOMAXPROCS so an n-row scan splits into at least two
// chunks whatever the host's core count, and fails if it does not.
func withChunks(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(4)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	if c := workgroup.Limit(n / chunkRows); c < 2 {
		t.Fatalf("a %d-row scan splits into %d chunk(s), want ≥ 2", n, c)
	}
}

// TestStrataDirectoryChunkedMatchesSequential: the chunk-parallel scan of
// a scan-stable source lays out exactly the directory the one-chunk scan
// does, on the one-byte (≤ 256 strata) and four-byte stratum paths, with
// tie-heavy keys.
func TestStrataDirectoryChunkedMatchesSequential(t *testing.T) {
	const n = 4*chunkRows + 1234
	withChunks(t, n)
	src, keySchema, project := chunkedRows(n)
	for _, h := range []int{8, 300} {
		t.Run(fmt.Sprintf("strata=%d", h), func(t *testing.T) {
			ks := equiDepthStrata(t, src, keySchema, project, h)
			if h > 256 && ks.NumStrata() <= 256 {
				t.Fatalf("only %d strata: the four-byte path is not reached", ks.NumStrata())
			}
			seq, err := BuildStrataDirectory(src, ks, keySchema, project)
			if err != nil {
				t.Fatal(err)
			}
			par, err := BuildStrataDirectory(stableSlice{src}, ks, keySchema, project)
			if err != nil {
				t.Fatal(err)
			}
			if par.NumStrata() != seq.NumStrata() || par.NumRows() != seq.NumRows() {
				t.Fatalf("chunked: %d strata over %d rows, sequential: %d over %d",
					par.NumStrata(), par.NumRows(), seq.NumStrata(), seq.NumRows())
			}
			for s := range seq.rows {
				if !slices.Equal(par.rows[s], seq.rows[s]) {
					t.Fatalf("stratum %d: chunked layout differs from sequential", s)
				}
				if cap(par.rows[s]) != len(par.rows[s]) {
					t.Errorf("stratum %d: cap %d exceeds len %d", s, cap(par.rows[s]), len(par.rows[s]))
				}
			}
		})
	}
}

// TestStrataDirectoryChunkedFirstError: the chunked scan reports the error
// the sequential scan would — the first bad row's, in row order — when bad
// rows sit in later chunks, for payload and row-fetch failures alike.
func TestStrataDirectoryChunkedFirstError(t *testing.T) {
	const n = 4*chunkRows + 1234
	withChunks(t, n)
	good, keySchema, project := chunkedRows(n)
	ks := equiDepthStrata(t, good, keySchema, project, 8)

	bad := slices.Clone(good)
	first, later := n/2+17, n-5 // both past the first chunk
	bad[first] = value.Row{value.StringValue("overlong-status"), bad[first][1], bad[first][2]}
	bad[later] = value.Row{bad[later][0], bad[later][1], []byte{1, 2, 3}}
	_, seqErr := BuildStrataDirectory(bad, ks, keySchema, project)
	_, parErr := BuildStrataDirectory(stableSlice{bad}, ks, keySchema, project)
	if seqErr == nil || parErr == nil {
		t.Fatalf("bad rows accepted: sequential %v, chunked %v", seqErr, parErr)
	}
	if parErr.Error() != seqErr.Error() {
		t.Errorf("chunked error %q, sequential %q", parErr, seqErr)
	}

	_, parErr = BuildStrataDirectory(failingStable{stableSlice{good}, int64(later)}, ks, keySchema, project)
	if want := fmt.Sprintf("sampling: row fetch: row %d unreadable", later); parErr == nil || parErr.Error() != want {
		t.Errorf("row-fetch failure in a later chunk: %v", parErr)
	}
}
