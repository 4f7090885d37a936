package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestCheckRejectsCorruptedCF feeds the output check a served answer
// equal to the in-process recomputation, then the same answer with one
// cf off by one unit in the last place, and a live-table answer that
// claims convergence beyond its target.
func TestCheckRejectsCorruptedCF(t *testing.T) {
	small := staticTable()
	small.n = 2000
	tab, err := small.build()
	if err != nil {
		t.Fatal(err)
	}
	rp := newReplayer(map[string]catalogTable{"wide": tab}, 1)
	defer rp.close()
	o := whatIfOp(routePlain, &whatIfReq{
		Table: "wide", Candidates: cands(auditListsStatic, auditCodecs), Fraction: 0.05, Seed: 9,
	})
	rep := rp.run(&o)
	if rep.err != nil {
		t.Fatal(rep.err)
	}
	served := make([]resultJSON, len(rep.results))
	for i, r := range rep.results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
		served[i] = resultJSON{CF: r.Estimate.CF, SampleRows: r.Estimate.SampleRows}
	}
	body := func() []byte {
		b, err := json.Marshal(map[string]any{"results": served})
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	good := outcome{op: &o, status: 200, body: body()}
	if err := verify(&good, rep); err != nil {
		t.Fatalf("exact answer rejected: %v", err)
	}

	served[3].CF = math.Nextafter(served[3].CF, 2)
	bad := outcome{op: &o, status: 200, body: body()}
	err = verify(&bad, rep)
	if err == nil || !strings.Contains(err.Error(), "candidate 3") {
		t.Fatalf("corrupted cf accepted (err %v)", err)
	}

	live := estimateOp(routeLive, &estimateReq{Table: "ledger", Columns: []string{"qty"}, Codec: "rle", TargetError: 0.02})
	overclaim := outcome{op: &live, status: 200,
		body: []byte(`{"cf": 0.4, "sample_rows": 512, "achieved_error": 0.03, "rounds": 2, "converged": true}`)}
	if err := verify(&overclaim, replayed{}); err == nil {
		t.Fatal("converged answer beyond its target accepted")
	}
}

// fingerprint serializes everything a workload sends, in order: bodies,
// paths and the open-loop schedule.
func fingerprint(w *workloadDef) []byte {
	var b bytes.Buffer
	for _, seq := range [][]op{w.reads, w.writes, w.audit} {
		for _, o := range seq {
			fmt.Fprintf(&b, "%s %s %d %s\n", o.Path, o.Route, o.At, o.Body)
		}
		b.WriteString("--\n")
	}
	return b.Bytes()
}

func TestGenerateDeterministic(t *testing.T) {
	for _, name := range workloadNames {
		a, err := generate(name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := generate(name, 7, 2)
		c, _ := generate(name, 8, 2)
		if !bytes.Equal(fingerprint(a), fingerprint(b)) {
			t.Errorf("%s: one seed gave two request sequences", name)
		}
		if bytes.Equal(fingerprint(a), fingerprint(c)) {
			t.Errorf("%s: seeds 7 and 8 gave the same request sequence", name)
		}
		if len(a.writes) > 0 {
			same := len(a.writes) == len(c.writes)
			for i := 0; same && i < len(a.writes); i++ {
				same = a.writes[i].At == c.writes[i].At
			}
			if same {
				t.Errorf("%s: seeds 7 and 8 gave the same write schedule", name)
			}
		}
	}
}

// TestColdWorkloadsNeverRepeat pins the property the self-verification
// relies on: whatif-cold never sends the same (route, key list, codec,
// seed) twice, and adaptive-advise never asks for the same (route, key
// list, codec) twice, audit included.
func TestColdWorkloadsNeverRepeat(t *testing.T) {
	for _, tc := range []struct {
		name     string
		withSeed bool
	}{{"whatif-cold", true}, {"adaptive-advise", false}} {
		w, err := generate(tc.name, 3, 10)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		ops := append(append([]op(nil), w.reads...), w.audit...)
		for _, o := range ops {
			var cs []candidate
			var seed uint64
			adaptive := o.adaptive()
			switch {
			case o.whatif != nil:
				cs, seed = o.whatif.Candidates, o.whatif.Seed
			case o.advise != nil:
				cs, seed = o.advise.Candidates, o.advise.Seed
			}
			for _, c := range cs {
				k := fmt.Sprintf("%s %v %s %v", o.Route, c.Columns, c.Codec, adaptive)
				if tc.withSeed {
					k += fmt.Sprint(" ", seed)
				}
				if seen[k] && (tc.withSeed || adaptive) {
					t.Fatalf("%s repeats %s", tc.name, k)
				}
				seen[k] = true
			}
		}
	}
}
