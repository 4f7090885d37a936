package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if got, want := a.Uint64(), b.Uint64(); got != want {
			t.Fatalf("iteration %d: streams diverged: %d vs %d", i, got, want)
		}
	}
}

// TestSeedResetsToNewStream: reseeding a used generator in place yields the
// stream New returns for that seed.
func TestSeedResetsToNewStream(t *testing.T) {
	r := New(7)
	r.Uint64()
	for _, seed := range []uint64{0, 42, 1 << 63} {
		r.Seed(seed)
		fresh := New(seed)
		for i := 0; i < 100; i++ {
			if got, want := r.Uint64(), fresh.Uint64(); got != want {
				t.Fatalf("seed %d, draw %d: %d, want %d", seed, i, got, want)
			}
		}
	}
}

func TestSeedsDecorrelated(t *testing.T) {
	a := New(0)
	b := New(1)
	same := 0
	const n = 1000
	for i := 0; i < n; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("seeds 0 and 1 produced %d identical outputs out of %d", same, n)
	}
}

func TestDeriveIndependent(t *testing.T) {
	parent := New(7)
	// Deriving must not perturb the parent stream.
	ref := New(7)
	for i := 0; i < 10; i++ {
		parent.Uint64()
		ref.Uint64()
	}
	child := parent.Derive(123)
	for i := 0; i < 100; i++ {
		if got, want := parent.Uint64(), ref.Uint64(); got != want {
			t.Fatalf("Derive perturbed parent at step %d", i)
		}
	}
	// Same label from same point yields same child stream.
	parent2 := New(7)
	for i := 0; i < 10; i++ {
		parent2.Uint64()
	}
	child2 := parent2.Derive(123)
	for i := 0; i < 100; i++ {
		if child.Uint64() != child2.Uint64() {
			t.Fatalf("Derive is not deterministic at step %d", i)
		}
	}
}

func TestIntnRange(t *testing.T) {
	r := New(1)
	for _, n := range []int{1, 2, 3, 7, 100, 1 << 20} {
		for i := 0; i < 200; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				t.Fatalf("Intn(%d) = %d out of range", n, v)
			}
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestUint64nUniformity(t *testing.T) {
	// Chi-squared style sanity check over 8 buckets.
	r := New(99)
	const buckets = 8
	const n = 80000
	var counts [buckets]int
	for i := 0; i < n; i++ {
		counts[r.Uint64n(buckets)]++
	}
	want := float64(n) / buckets
	for b, c := range counts {
		if math.Abs(float64(c)-want) > 5*math.Sqrt(want) {
			t.Errorf("bucket %d count %d far from expected %.0f", b, c, want)
		}
	}
}

func TestFloat64Range(t *testing.T) {
	r := New(5)
	sum := 0.0
	const n = 100000
	for i := 0; i < n; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", v)
		}
		sum += v
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.01 {
		t.Errorf("Float64 mean %.4f too far from 0.5", mean)
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(11)
	const n = 200000
	var sum, sumSq float64
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.02 {
		t.Errorf("normal mean %.4f too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.05 {
		t.Errorf("normal variance %.4f too far from 1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(13)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Errorf("exponential mean %.4f too far from 1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(3)
	for _, n := range []int{0, 1, 2, 10, 257} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) invalid permutation %v", n, p)
			}
			seen[v] = true
		}
	}
}

func TestShuffleProperty(t *testing.T) {
	// Property: shuffling preserves the multiset of elements.
	f := func(seed uint64, raw []byte) bool {
		r := New(seed)
		vals := make([]int, len(raw))
		counts := map[int]int{}
		for i, b := range raw {
			vals[i] = int(b)
			counts[int(b)]++
		}
		r.Shuffle(len(vals), func(i, j int) { vals[i], vals[j] = vals[j], vals[i] })
		for _, v := range vals {
			counts[v]--
		}
		for _, c := range counts {
			if c != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += r.Uint64()
	}
	_ = sink
}

func BenchmarkIntn1000(b *testing.B) {
	r := New(1)
	var sink int
	for i := 0; i < b.N; i++ {
		sink += r.Intn(1000)
	}
	_ = sink
}
