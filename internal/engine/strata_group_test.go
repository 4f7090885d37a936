package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"samplecf/internal/core"
	"samplecf/internal/db"
	"samplecf/internal/faults"
	"samplecf/internal/value"
)

// estimateDiff reports how two estimates differ in anything but timing,
// or "" when they are bit-equal.
func estimateDiff(a, b core.Estimate) string {
	switch {
	case math.Float64bits(a.CF) != math.Float64bits(b.CF):
		return fmt.Sprintf("CF %v vs %v", a.CF, b.CF)
	case a.SampleRows != b.SampleRows || a.SampleDistinct != b.SampleDistinct:
		return fmt.Sprintf("r/d' %d/%d vs %d/%d", a.SampleRows, a.SampleDistinct, b.SampleRows, b.SampleDistinct)
	case !reflect.DeepEqual(a.Result, b.Result):
		return fmt.Sprintf("result %+v vs %+v", a.Result, b.Result)
	case !reflect.DeepEqual(a.Profile, b.Profile):
		return "frequency profiles differ"
	}
	return ""
}

var groupCodecs = []string{"nullsuppression", "rle", "pagedict+ns", "prefix"}

// TestStratifiedBatchSharesArmSet: a fixed-r stratified batch of one key
// list under four codecs draws and prepares each arm once — the ledger
// counts one draw and one index per arm, every member reports a shared
// sample, the rows-per-stratum ledger sums to r rather than 4r — and each
// member's estimate is bit-equal to the same request run alone.
func TestStratifiedBatchSharesArmSet(t *testing.T) {
	tab := testTable(t, "stratgroup", 20000, 7)
	const r = 1200
	req := func(name string) Request {
		return Request{Table: tab, Codec: codec(t, name), KeyColumns: []string{"a", "b"},
			SampleRows: r, Seed: 3, Strata: 8}
	}
	alone := make([]core.Estimate, len(groupCodecs))
	var arms uint64
	for i, name := range groupCodecs {
		e := New(Config{Workers: 2, CacheEntries: -1})
		res := e.Estimate(context.Background(), req(name))
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.SharedSample {
			t.Errorf("%s alone reported a shared sample", name)
		}
		alone[i] = res.Estimate
		st := e.Stats()
		if st.SamplesDrawn != st.IndexesPrepared || st.SamplesShared != 0 {
			t.Errorf("%s alone: drawn %d, prepared %d, shared %d", name, st.SamplesDrawn, st.IndexesPrepared, st.SamplesShared)
		}
		arms = st.SamplesDrawn
		e.Close()
	}
	if arms < 2 {
		t.Fatalf("%d arms: the table does not stratify", arms)
	}

	e := New(Config{Workers: 2})
	defer e.Close()
	reqs := make([]Request, len(groupCodecs))
	for i, name := range groupCodecs {
		reqs[i] = req(name)
	}
	for i, res := range e.WhatIf(context.Background(), reqs) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if !res.SharedSample {
			t.Errorf("%s: SharedSample = false in a four-codec group", groupCodecs[i])
		}
		if d := estimateDiff(res.Estimate, alone[i]); d != "" {
			t.Errorf("%s: batch member differs from the request alone: %s", groupCodecs[i], d)
		}
	}
	st := e.Stats()
	if st.SamplesDrawn != arms || st.IndexesPrepared != arms {
		t.Errorf("drawn %d, prepared %d, want %d each (one per arm)", st.SamplesDrawn, st.IndexesPrepared, arms)
	}
	if st.SamplesShared != 4 {
		t.Errorf("SamplesShared = %d, want 4", st.SamplesShared)
	}
	if st.SortRows != r || st.PrepareNanos == 0 {
		t.Errorf("SortRows = %d (want %d), PrepareNanos = %d", st.SortRows, r, st.PrepareNanos)
	}
	if st.StratifiedEstimates != 4 || st.Evaluated != 4 {
		t.Errorf("StratifiedEstimates = %d, Evaluated = %d, want 4 each", st.StratifiedEstimates, st.Evaluated)
	}
	var rows uint64
	for h := 0; h < 8; h++ {
		rows += e.strataRows.With(strconv.Itoa(h)).Value()
	}
	if rows != r {
		t.Errorf("rows-per-stratum ledger sums to %d, want r = %d", rows, r)
	}
}

// TestStratifiedGroupsSplitByKey: only items agreeing on key list, strata,
// r and seed share an arm set; each still answers exactly as it would
// alone, and page size (like codec) stays out of the group key.
func TestStratifiedGroupsSplitByKey(t *testing.T) {
	tab := testTable(t, "stratsplit", 12000, 5)
	reqs := []Request{
		{Table: tab, Codec: codec(t, "rle"), KeyColumns: []string{"a"}, SampleRows: 800, Seed: 1, Strata: 4},
		{Table: tab, Codec: codec(t, "prefix"), KeyColumns: []string{"a"}, SampleRows: 800, Seed: 1, Strata: 4, PageSize: 4096},
		{Table: tab, Codec: codec(t, "rle"), KeyColumns: []string{"b"}, SampleRows: 800, Seed: 1, Strata: 4},
		{Table: tab, Codec: codec(t, "rle"), KeyColumns: []string{"a"}, SampleRows: 800, Seed: 2, Strata: 4},
		{Table: tab, Codec: codec(t, "rle"), KeyColumns: []string{"a"}, SampleRows: 800, Seed: 1, Strata: 2},
	}
	e := New(Config{Workers: 2})
	defer e.Close()
	got := e.WhatIf(context.Background(), reqs)
	for i, req := range reqs {
		solo := New(Config{Workers: 2, CacheEntries: -1})
		want := solo.Estimate(context.Background(), req)
		solo.Close()
		if got[i].Err != nil || want.Err != nil {
			t.Fatalf("request %d: %v / %v", i, got[i].Err, want.Err)
		}
		if d := estimateDiff(got[i].Estimate, want.Estimate); d != "" {
			t.Errorf("request %d differs from itself alone: %s", i, d)
		}
		if shared := i < 2; got[i].SharedSample != shared {
			t.Errorf("request %d: SharedSample = %v, want %v", i, got[i].SharedSample, shared)
		}
	}
	if st := e.Stats(); st.SamplesShared != 2 {
		t.Errorf("SamplesShared = %d, want 2", st.SamplesShared)
	}
}

// rowlessTable is a live table whose own Row always fails while its
// published snapshot serves reads: stratified requests must read the
// snapshot at their epoch, never the live table.
type rowlessTable struct{ *db.Table }

func (rowlessTable) Row(int64) (value.Row, error) { return nil, errors.New("live-table Row read") }

// TestStratifiedReadsPinnedSnapshot: the pilot, the stratify scan, and the
// fixed-r and adaptive arm draws all go through the snapshot pinned at the
// request's epoch.
func TestStratifiedReadsPinnedSnapshot(t *testing.T) {
	d := db.New(0)
	tab := rowlessTable{liveTable(t, d, "pinned", 3000)}
	e := New(Config{Workers: 2})
	defer e.Close()
	for _, req := range []Request{
		{Table: tab, Codec: mustCodec(t), KeyColumns: []string{"city"}, SampleRows: 400, Seed: 1, Strata: 4, FreshSample: true},
		{Table: tab, Codec: mustCodec(t), KeyColumns: []string{"seq"}, Seed: 2, Strata: 4, TargetError: 0.05},
	} {
		if res := e.Estimate(context.Background(), req); res.Err != nil {
			t.Errorf("strata %d target %v: %v", req.Strata, req.TargetError, res.Err)
		}
	}
}

// stratBatch is one fixed-r Strata: 4 batch of one key list under four
// codecs.
func stratBatch(t *testing.T, tab Table, seed uint64) []Request {
	reqs := make([]Request, len(groupCodecs))
	for i, name := range groupCodecs {
		reqs[i] = Request{Table: tab, Codec: codec(t, name), KeyColumns: []string{"a"},
			SampleRows: 600, Seed: seed, Strata: 4}
	}
	return reqs
}

// TestChaosStratifiedDrawHealsByRetry: per-stratum draws fire
// sampling.draw, and a fixed-r stratified group retries a failed arm
// draw — one retry heals the whole four-codec group, whose answers equal
// the fault-free run's.
func TestChaosStratifiedDrawHealsByRetry(t *testing.T) {
	tab := testTable(t, "chaosstrat", 6000, 5)
	ctx := context.Background()
	clean := chaosEngine(t, Config{Workers: 2}).WhatIf(ctx, stratBatch(t, tab, 9))
	e := chaosEngine(t, Config{Workers: 2})
	// Warm the directory first: the boundary pilot is a draw too, and the
	// fault must land on an arm.
	for _, res := range e.WhatIf(ctx, stratBatch(t, tab, 1)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	armChaos(t, "sampling.draw:err@1", 1)
	for i, res := range e.WhatIf(ctx, stratBatch(t, tab, 9)) {
		if res.Err != nil {
			t.Fatalf("%s: transient draw fault not healed: %v", groupCodecs[i], res.Err)
		}
		if d := estimateDiff(res.Estimate, clean[i].Estimate); d != "" {
			t.Errorf("%s: healed estimate differs from the fault-free run: %s", groupCodecs[i], d)
		}
	}
	if n := len(faults.Fired()); n != 1 {
		t.Errorf("%d faults fired, want 1", n)
	}
	if got := e.Stats().ShardRetries; got != 1 {
		t.Errorf("ShardRetries = %d, want 1", got)
	}
}

// TestChaosStratifiedDrawPersistentFails: when every draw fails, every
// member of the group fails with the arms' joined error after the retries
// run out — no hang, no partial answer.
func TestChaosStratifiedDrawPersistentFails(t *testing.T) {
	tab := testTable(t, "chaosstratdown", 6000, 5)
	ctx := context.Background()
	e := chaosEngine(t, Config{Workers: 2})
	for _, res := range e.WhatIf(ctx, stratBatch(t, tab, 1)) {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	armChaos(t, "sampling.draw:err@1+", 1)
	for i, res := range e.WhatIf(ctx, stratBatch(t, tab, 9)) {
		if res.Err == nil {
			t.Fatalf("%s: persistent draw fault produced an estimate", groupCodecs[i])
		}
		if !errors.Is(res.Err, faults.ErrInjected) {
			t.Errorf("%s: error does not match faults.ErrInjected: %v", groupCodecs[i], res.Err)
		}
		if n := strings.Count(res.Err.Error(), "core: stratum "); n < 2 {
			t.Errorf("%s: error names %d arm(s), want every failed arm joined: %v", groupCodecs[i], n, res.Err)
		}
	}
	if got := e.Stats().ShardRetries; got == 0 {
		t.Error("no retries before giving up")
	}
}

// TestChaosBreakerRefreshNeverCoalesces pins the stale-forever fix: the
// background refresh an open breaker's probe spawns shares the probe's
// cache key, and the probe's flight stays open until its stale answer is
// published. A refresh that joined that flight would inherit the stale
// result, its outcome would never reach the breaker, and the breaker would
// deny every later call. The test holds such a flight open on the
// refresh's key and requires the refresh to compute and close the breaker.
func TestChaosBreakerRefreshNeverCoalesces(t *testing.T) {
	d := db.New(0)
	tb := liveTable(t, d, "t", 2000)
	e := chaosEngine(t, Config{Workers: 2, CacheEntries: 64,
		BreakerThreshold: 1, BreakerCooldown: time.Millisecond})
	req := Request{Table: tb, Codec: mustCodec(t), KeyColumns: []string{"city"},
		SampleRows: 200, Seed: 5, FreshSample: true}
	ctx := context.Background()
	// openFlight registers an in-progress flight on the key WhatIf gives
	// req at the table's current epoch, as coalesce does for a leader.
	openFlight := func() (*flight, func(Result)) {
		key := cacheKey{inst: tb.InstanceID(), epoch: tb.Epoch(), columns: "city", codec: req.Codec.Name(),
			rows: req.SampleRows, seed: req.Seed, pageSize: e.cfg.PageSize, fresh: true, shard: wholeTable}
		f := &flight{done: make(chan struct{}), refs: 1}
		e.flights.mu.Lock()
		if e.flights.m == nil {
			e.flights.m = make(map[any]*flight)
		}
		e.flights.m[key] = f
		e.flights.mu.Unlock()
		return f, func(res Result) {
			f.mu.Lock()
			f.finished, f.res = true, res
			f.mu.Unlock()
			e.flights.mu.Lock()
			delete(e.flights.m, key)
			e.flights.mu.Unlock()
			close(f.done)
		}
	}
	refs := func(f *flight) int {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.refs
	}

	// The hand-built key is the one requests coalesce on: an ordinary
	// request joins the open flight and takes its result.
	f, finish := openFlight()
	joined := make(chan Result, 1)
	go func() { joined <- e.Estimate(ctx, req) }()
	for refs(f) < 2 {
		time.Sleep(time.Millisecond)
	}
	good := e.Estimate(ctx, Request{Table: tb, Codec: req.Codec, KeyColumns: req.KeyColumns,
		SampleRows: req.SampleRows, Seed: req.Seed + 1, FreshSample: true})
	if good.Err != nil {
		t.Fatal(good.Err)
	}
	finish(good)
	if res := <-joined; !res.Coalesced {
		t.Fatalf("request did not coalesce on the hand-built key: %+v", res)
	}

	// Seed the stale cache, then trip the breaker with one failure at a
	// new epoch and let the cooldown lapse.
	if res := e.Estimate(ctx, req); res.Err != nil {
		t.Fatal(res.Err)
	}
	armChaos(t, "sampling.draw:err@1+", 1)
	if _, err := tb.Insert(value.Row{value.StringValue("x"), value.IntValue(0)}); err != nil {
		t.Fatal(err)
	}
	if res := e.Estimate(ctx, req); res.Err == nil {
		t.Fatal("faulted request succeeded")
	}
	faults.Disarm()
	time.Sleep(5 * time.Millisecond)

	// Probe: claim the breaker's probe slot and spawn the refresh while a
	// flight on its key is still open.
	bk := breakerKey{inst: tb.InstanceID(), codec: req.Codec.Name()}
	if v := e.breakerAllow(bk); v != breakerProbe {
		t.Fatalf("breaker verdict %v after cooldown, want probe", v)
	}
	f, finish = openFlight()
	e.spawnRefresh(req)
	refreshed := make(chan struct{})
	go func() { e.bg.Wait(); close(refreshed) }()
	deadline := time.Now().Add(5 * time.Second)
wait:
	for refs(f) < 2 {
		select {
		case <-refreshed:
			break wait
		case <-time.After(time.Millisecond):
		}
		if time.Now().After(deadline) {
			t.Fatal("refresh neither computed nor joined the open flight")
		}
	}
	stale, _ := e.staleResult(&batchItem{req: req, pageSize: e.cfg.PageSize})
	finish(stale)
	<-refreshed
	if v := e.breakerAllow(bk); v != breakerClosed {
		t.Fatalf("breaker verdict %v after a successful refresh, want closed", v)
	}
	if res := e.Estimate(ctx, req); res.Err != nil || res.Stale {
		t.Fatalf("after the refresh: err=%v stale=%v, want a fresh answer", res.Err, res.Stale)
	}
}
