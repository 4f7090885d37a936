package core

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"samplecf/internal/sampling"
	"samplecf/internal/value"
)

// boundarySource wraps a RowSource with a canned IndexKeyBoundaries answer,
// standing in for a table that maintains a matching index.
type boundarySource struct {
	sampling.RowSource
	bounds [][]byte
	asked  int
}

func (b *boundarySource) IndexKeyBoundaries(keyCols []string, strata int) ([][]byte, bool) {
	b.asked = strata
	return b.bounds, true
}

// TestStratifiedSingleStratumMatchesUnstratified pins the degenerate
// contract on the fixed-size path: Strata=1 must reproduce the unstratified
// estimate byte-for-byte — same draws, same sorted arena, same compressed
// pages — for both CI families of codec.
func TestStratifiedSingleStratumMatchesUnstratified(t *testing.T) {
	tab := adaptiveTable(t, "zipf", 10000, 11)
	for _, codec := range []string{"nullsuppression", "rle", "pagedict+ns"} {
		for _, seed := range []uint64{1, 7} {
			opts := Options{SampleRows: 600, Codec: mustCodec(t, codec), Seed: seed}
			plain, err := SampleCF(tab, tab.Schema(), opts)
			if err != nil {
				t.Fatal(err)
			}
			opts.Strata = 1
			strat, err := SampleCF(tab, tab.Schema(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if plain.CF != strat.CF ||
				plain.SampleRows != strat.SampleRows ||
				plain.SampleDistinct != strat.SampleDistinct ||
				plain.Result.CompressedBytes != strat.Result.CompressedBytes ||
				plain.Result.UncompressedBytes != strat.Result.UncompressedBytes {
				t.Errorf("%s seed %d: strata=1 (CF %v, r %d, d %d, %d/%d bytes) != unstratified (CF %v, r %d, d %d, %d/%d bytes)",
					codec, seed,
					strat.CF, strat.SampleRows, strat.SampleDistinct,
					strat.Result.CompressedBytes, strat.Result.UncompressedBytes,
					plain.CF, plain.SampleRows, plain.SampleDistinct,
					plain.Result.CompressedBytes, plain.Result.UncompressedBytes)
			}
		}
	}
}

// TestStratifiedAdaptiveSingleStratumMatchesUnstratified pins the same
// contract on the precision-targeted path for bootstrap-CI codecs: a single
// identity stratum replays the unstratified loop exactly — same round
// streams, same bootstrap seeds, same doubling schedule — so every reported
// field coincides. (Theorem-1 codecs are exempt: the unstratified loop
// jumps straight to the bound-implied r while the stratified loop doubles,
// an intentional schedule difference.)
func TestStratifiedAdaptiveSingleStratumMatchesUnstratified(t *testing.T) {
	tab := adaptiveTable(t, "zipf", 20000, 3)
	opts := Options{Codec: mustCodec(t, "rle"), Seed: 3}
	target := Precision{TargetError: 0.03}
	plain, err := SampleCFAdaptive(tab, tab.Schema(), opts, target)
	if err != nil {
		t.Fatal(err)
	}
	opts.Strata = 1
	strat, err := SampleCFAdaptive(tab, tab.Schema(), opts, target)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Estimate.CF != strat.Estimate.CF ||
		plain.Estimate.SampleRows != strat.Estimate.SampleRows ||
		plain.AchievedError != strat.AchievedError ||
		plain.Rounds != strat.Rounds ||
		plain.Converged != strat.Converged {
		t.Errorf("strata=1 adaptive (CF %v ± %v, r %d, rounds %d) != unstratified (CF %v ± %v, r %d, rounds %d)",
			strat.Estimate.CF, strat.AchievedError, strat.Estimate.SampleRows, strat.Rounds,
			plain.Estimate.CF, plain.AchievedError, plain.Estimate.SampleRows, plain.Rounds)
	}
}

// TestAdaptiveStratifiedDropsDroppableArms pins the arm-drop contract: an
// arm failing with a Droppable error leaves the loop and is reported while
// the survivors still converge; a plain failure, or dropping every arm,
// fails the loop with each failed arm's error joined under its label.
func TestAdaptiveStratifiedDropsDroppableArms(t *testing.T) {
	tab := adaptiveTable(t, "uniform", 20000, 5)
	bounds, err := StratumBoundaries(tab, tab.Schema(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := StratifyTable(tab, tab.Schema(), nil, bounds)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Codec: mustCodec(t, "rle"), Seed: 5}
	boom := errors.New("boom")
	run := func(fail map[int]error) ([]StratumArm, AdaptiveResult, error) {
		arms := DirectoryArms(tab, tab.Schema(), nil, dir, opts.Seed)
		counts := make([]int64, len(arms))
		for i := range arms {
			counts[i] = arms[i].Rows
		}
		for i, err := range fail {
			arms[i].Extend = func(int, int64) (*value.RecordArena, error) { return nil, err }
		}
		res, err := AdaptiveEstimateStratified(arms, sampling.Allocate(256, counts, nil),
			Precision{TargetError: 0.05}, opts)
		return arms, res, err
	}

	_, res, err := run(map[int]error{1: Droppable(boom)})
	if err != nil {
		t.Fatalf("droppable failure failed the loop: %v", err)
	}
	if len(res.Dropped) != 1 || res.Dropped[0] != 1 {
		t.Errorf("Dropped = %v, want [1]", res.Dropped)
	}
	if !res.Converged || res.Estimate.SampleRows == 0 {
		t.Errorf("survivors did not converge: %+v", res)
	}

	arms, _, err := run(map[int]error{1: Droppable(boom), 2: boom})
	if err == nil || !errors.Is(err, boom) {
		t.Fatalf("plain arm failure: err = %v, want the joined failures", err)
	}
	for _, i := range []int{1, 2} {
		if !strings.Contains(err.Error(), arms[i].Label) {
			t.Errorf("joined error does not name %q: %v", arms[i].Label, err)
		}
	}

	all := map[int]error{}
	for i := range arms {
		all[i] = Droppable(boom)
	}
	if _, _, err := run(all); err == nil {
		t.Error("dropping every arm succeeded")
	}
}

// TestStratifiedProportionalCINoWorseOnUniform is the no-harm property: on
// a uniform table there is no between-strata variance to remove, so
// stratified estimation at proportional round-0 allocation must reach the
// same precision target without pathological extra cost, for every strata
// count and seed in the suite.
func TestStratifiedProportionalCINoWorseOnUniform(t *testing.T) {
	tab := adaptiveTable(t, "uniform", 20000, 17)
	const targetErr = 0.04
	for _, codec := range []string{"nullsuppression", "rle"} {
		for _, seed := range []uint64{1, 5} {
			base, err := SampleCFAdaptive(tab, tab.Schema(),
				Options{Codec: mustCodec(t, codec), Seed: seed},
				Precision{TargetError: targetErr})
			if err != nil {
				t.Fatal(err)
			}
			if !base.Converged {
				t.Fatalf("%s seed %d: uniform path did not converge", codec, seed)
			}
			for _, strata := range []int{1, 2, 4, 8} {
				res, err := SampleCFAdaptive(tab, tab.Schema(),
					Options{Codec: mustCodec(t, codec), Seed: seed, Strata: strata},
					Precision{TargetError: targetErr})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Errorf("%s seed %d strata %d: did not converge", codec, seed, strata)
					continue
				}
				if res.AchievedError > targetErr {
					t.Errorf("%s seed %d strata %d: achieved %v > target %v",
						codec, seed, strata, res.AchievedError, targetErr)
				}
				// Doubling granularity and per-stratum floors allow some
				// overshoot, but proportional stratification must not blow
				// up the row budget on data it cannot help.
				if lim := 3 * base.Estimate.SampleRows; res.Estimate.SampleRows > lim {
					t.Errorf("%s seed %d strata %d: sampled %d rows, uniform needed %d",
						codec, seed, strata, res.Estimate.SampleRows, base.Estimate.SampleRows)
				}
			}
		}
	}
}

// TestStratumBoundariesPrefersIndex checks resolution order: an index-backed
// source answers boundary requests without any pilot draw, and the pilot
// fallback produces strictly ascending cut points.
func TestStratumBoundariesPrefersIndex(t *testing.T) {
	tab := adaptiveTable(t, "uniform", 4000, 23)
	canned := [][]byte{append([]byte("m"), make([]byte, 19)...)}
	src := &boundarySource{RowSource: tab, bounds: canned}
	got, err := StratumBoundaries(src, tab.Schema(), nil, 4)
	if err != nil {
		t.Fatal(err)
	}
	if src.asked != 4 {
		t.Fatalf("index asked for %d strata, want 4", src.asked)
	}
	if len(got) != 1 || !bytes.Equal(got[0], canned[0]) {
		t.Fatalf("index boundaries not used: %q", got)
	}
	// Pilot fallback: plain table, ascending bounds, seed-independent.
	for _, strata := range []int{2, 4, 8} {
		b1, err := StratumBoundaries(tab, tab.Schema(), nil, strata)
		if err != nil {
			t.Fatal(err)
		}
		if len(b1) == 0 || len(b1) > strata-1 {
			t.Fatalf("strata %d: got %d pilot boundaries", strata, len(b1))
		}
		for i := 1; i < len(b1); i++ {
			if bytes.Compare(b1[i-1], b1[i]) >= 0 {
				t.Fatalf("strata %d: pilot boundaries not ascending", strata)
			}
		}
		b2, err := StratumBoundaries(tab, tab.Schema(), nil, strata)
		if err != nil {
			t.Fatal(err)
		}
		if len(b1) != len(b2) || !bytes.Equal(bytes.Join(b1, nil), bytes.Join(b2, nil)) {
			t.Fatalf("strata %d: pilot boundaries not deterministic", strata)
		}
	}
	// Strata ≤ 1: no boundaries, no pilot.
	if b, err := StratumBoundaries(tab, tab.Schema(), nil, 1); err != nil || len(b) != 0 {
		t.Fatalf("strata=1: bounds=%v err=%v", b, err)
	}
}

// TestStratifyTablePartitions checks the directory covers the table exactly
// and weights derived from it sum to one.
func TestStratifyTablePartitions(t *testing.T) {
	tab := adaptiveTable(t, "zipf", 6000, 29)
	bounds, err := StratumBoundaries(tab, tab.Schema(), nil, 8)
	if err != nil {
		t.Fatal(err)
	}
	dir, err := StratifyTable(tab, tab.Schema(), nil, bounds)
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, c := range dir.Counts() {
		total += c
	}
	if total != tab.NumRows() {
		t.Fatalf("directory covers %d of %d rows", total, tab.NumRows())
	}
}

// TestEquiDepthFromKeysUnsortedInput checks key samples need no pre-sort
// and the input survives unmutated.
func TestEquiDepthFromKeysUnsortedInput(t *testing.T) {
	keys := [][]byte{{9}, {1}, {5}, {3}, {7}, {2}, {8}, {4}, {6}, {0}}
	orig := make([]string, len(keys))
	for i, k := range keys {
		orig[i] = string(k)
	}
	bounds := EquiDepthFromKeys(keys, 5)
	if len(bounds) != 4 {
		t.Fatalf("got %d boundaries, want 4", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bytes.Compare(bounds[i-1], bounds[i]) >= 0 {
			t.Fatal("boundaries not ascending")
		}
	}
	for i, k := range keys {
		if string(k) != orig[i] {
			t.Fatal("input keys mutated")
		}
	}
}

// TestStrataDirectoryMatchesEncodedKeyOracle checks StratifyTable's
// directories row for row against the definition — StratumOf on each row's
// encoded index key, rows ascending within a stratum — on the wide mixed
// schema, for INT, CHAR, low-cardinality-led, and INT-led multi-column
// keys at 2, 8, and 300 strata.
func TestStrataDirectoryMatchesEncodedKeyOracle(t *testing.T) {
	tab := wideTable(t, 20_000)
	for _, cols := range [][]string{
		{"qty"}, {"product", "customer"}, {"status", "customer"}, {"day", "region", "price"},
	} {
		keySchema, project, err := keyProjection(tab.Schema(), cols)
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range []int{2, 8, 300} {
			bounds, err := StratumBoundaries(tab, tab.Schema(), cols, h)
			if err != nil {
				t.Fatal(err)
			}
			dir, err := StratifyTable(tab, tab.Schema(), cols, bounds)
			if err != nil {
				t.Fatal(err)
			}
			ks := dir.Strata()
			want := make([][]int64, ks.NumStrata())
			var key []byte
			for i, row := range tab.Rows() {
				key, err = value.EncodeKey(keySchema, projectRow(row, project), key[:0])
				if err != nil {
					t.Fatal(err)
				}
				s := ks.StratumOf(key)
				want[s] = append(want[s], int64(i))
			}
			counts := dir.Counts()
			for s := range want {
				if counts[s] != int64(len(want[s])) {
					t.Fatalf("%v H=%d stratum %d: %d rows, want %d", cols, h, s, counts[s], len(want[s]))
				}
				if len(want[s]) == 0 {
					continue
				}
				// WOR-drawing the whole stratum returns its rows in
				// directory order.
				got, err := dir.WORExtend(s, counts[s], 1, 0, map[int64]struct{}{})
				if err != nil {
					t.Fatal(err)
				}
				slices.Sort(got)
				if !slices.Equal(got, want[s]) {
					t.Fatalf("%v H=%d stratum %d: rows differ from the encoded-key oracle", cols, h, s)
				}
			}
		}
	}
}

// TestStrataBuildRejectsMalformedKeyPayloads checks the classify scan keeps
// EncodeKey's payload checks: a CHAR payload longer than its declared
// length or an INT payload that is not 4 bytes fails the build, while the
// same defect in a non-key column does not.
func TestStrataBuildRejectsMalformedKeyPayloads(t *testing.T) {
	schema := value.MustSchema(
		value.Column{Name: "name", Type: value.Char(4)},
		value.Column{Name: "qty", Type: value.Int32()},
	)
	rows := make([]value.Row, 100)
	for i := range rows {
		rows[i] = value.Row{[]byte{'a' + byte(i%26)}, value.IntValue(int32(i))}
	}
	for _, c := range []struct {
		cols    []string
		bad     value.Row
		wantErr string
	}{
		{[]string{"name"}, value.Row{[]byte("abcde"), value.IntValue(1)}, "exceeds CHAR(4)"},
		{[]string{"qty", "name"}, value.Row{[]byte("ab"), []byte{1, 2, 3}}, "must be 4 bytes"},
		{[]string{"qty"}, value.Row{[]byte("abcde"), value.IntValue(1)}, ""},
	} {
		src := append(sampling.SliceSource(nil), rows...)
		src[57] = c.bad
		bounds, err := PilotBoundaries(sampling.SliceSource(rows), schema, c.cols, 4)
		if err != nil {
			t.Fatal(err)
		}
		_, err = StratifyTable(src, schema, c.cols, bounds)
		if c.wantErr == "" {
			if err != nil {
				t.Errorf("%v: malformed non-key column failed the build: %v", c.cols, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.wantErr) {
			t.Errorf("%v: err = %v, want one containing %q", c.cols, err, c.wantErr)
		}
	}
}

// hugeSource reports more rows than a uint32 index can address and fails
// the test if any row is fetched.
type hugeSource struct{ t *testing.T }

func (hugeSource) NumRows() int64 { return math.MaxUint32 + 1 }
func (h hugeSource) Row(int64) (value.Row, error) {
	h.t.Fatal("row fetched from an oversized source")
	return nil, nil
}

// TestStrataBuildRejectsMoreThanUint32Rows checks an oversized source gets
// a clean error before the build allocates its per-row arrays.
func TestStrataBuildRejectsMoreThanUint32Rows(t *testing.T) {
	schema := value.MustSchema(value.Column{Name: "qty", Type: value.Int32()})
	for _, bounds := range [][][]byte{nil, {value.IntValue(7)}} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := StratifyTable(hugeSource{t}, schema, nil, bounds)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "row limit") {
			t.Fatalf("%d bounds: err = %v, want the row-limit error", len(bounds), err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%d bounds: allocated %d bytes before failing", len(bounds), grew)
		}
	}
}
