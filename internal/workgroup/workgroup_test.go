package workgroup

import (
	"runtime"
	"sync/atomic"
	"testing"
)

func TestLimit(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	want := func(units int) int {
		w := procs
		if w > MaxWorkers {
			w = MaxWorkers
		}
		if w > units {
			w = units
		}
		if w < 1 {
			w = 1
		}
		return w
	}
	for _, units := range []int{-1, 0, 1, 2, 7, 8, 9, 1000} {
		if got := Limit(units); got != want(units) {
			t.Errorf("Limit(%d) = %d, want %d", units, got, want(units))
		}
	}
}

func TestSem(t *testing.T) {
	if NewSem(0) != nil || NewSem(-1) != nil {
		t.Fatal("non-positive capacity must yield a nil Sem")
	}
	var nilSem Sem
	if nilSem.TryAcquire() {
		t.Fatal("nil Sem must never admit a goroutine")
	}
	s := NewSem(2)
	if !s.TryAcquire() || !s.TryAcquire() {
		t.Fatal("fresh Sem(2) must admit two")
	}
	if s.TryAcquire() {
		t.Fatal("exhausted Sem must refuse")
	}
	s.Release()
	if !s.TryAcquire() {
		t.Fatal("released slot must be reusable")
	}
}

// TestEach: every unit runs exactly once, on at most Limit(units)
// goroutines at a time counting the caller's.
func TestEach(t *testing.T) {
	for _, units := range []int{0, 1, 3, 50} {
		var ran [50]atomic.Int32
		var live, peak atomic.Int32
		Each(units, func(i int) {
			n := live.Add(1)
			for p := peak.Load(); n > p && !peak.CompareAndSwap(p, n); p = peak.Load() {
			}
			ran[i].Add(1)
			live.Add(-1)
		})
		for i := 0; i < units; i++ {
			if got := ran[i].Load(); got != 1 {
				t.Errorf("units=%d: unit %d ran %d times", units, i, got)
			}
		}
		if p := int(peak.Load()); p > Limit(units) {
			t.Errorf("units=%d: %d units ran at once, Limit is %d", units, p, Limit(units))
		}
	}
}
