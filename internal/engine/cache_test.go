package engine

import "testing"

// TestLRUWeights drives a weighted lru through insertion, replacement,
// kept incumbents, and an entry heavier than the whole capacity.
func TestLRUWeights(t *testing.T) {
	c := newLRU[string, int](100)
	c.weight = func(v int) int64 { return int64(v) }
	evictions := 0
	c.onEvict = func() { evictions++ }
	check := func(step string, weight int64, entries int) {
		t.Helper()
		if got := c.Weight(); got != weight {
			t.Errorf("%s: Weight = %d, want %d", step, got, weight)
		}
		if got := c.Len(); got != entries {
			t.Errorf("%s: Len = %d, want %d", step, got, entries)
		}
	}

	c.Put("a", 40)
	c.Put("b", 40)
	check("two entries", 80, 2)
	c.Put("c", 40)
	check("third entry evicts the oldest", 80, 2)
	if _, ok := c.Get("a"); ok || evictions != 1 {
		t.Errorf("a resident=%v after %d evictions, want evicted once", ok, evictions)
	}

	c.Put("b", 70)
	check("replacement reweighs and evicts", 70, 1)
	if _, ok := c.Get("c"); ok {
		t.Error("c survived a replacement that pushed the total over capacity")
	}

	c.keep = func(resident, v int) bool { return true }
	if got := c.Put("b", 10); got != 70 {
		t.Errorf("Put on a kept key returned %d, want the incumbent 70", got)
	}
	check("kept incumbent keeps its weight", 70, 1)

	c.Put("huge", 500)
	check("over-capacity entry stays alone", 500, 1)
	if v, ok := c.Get("huge"); !ok || v != 500 {
		t.Errorf("huge = %d, %v; want resident", v, ok)
	}
	c.Put("d", 10)
	check("next entry displaces the heavy one", 10, 1)
}

// TestLRUUnweightedCountsEntries: without a weight function every entry
// weighs 1, so capacity is an entry count.
func TestLRUUnweightedCountsEntries(t *testing.T) {
	c := newLRU[int, int](3)
	for i := 0; i < 10; i++ {
		c.Put(i, i*1000)
	}
	if c.Len() != 3 || c.Weight() != 3 {
		t.Errorf("Len = %d, Weight = %d, want 3 and 3", c.Len(), c.Weight())
	}
	for i := 7; i < 10; i++ {
		if _, ok := c.Get(i); !ok {
			t.Errorf("recent key %d evicted", i)
		}
	}
}
