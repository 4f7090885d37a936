package main

import (
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one sent request as the client saw it.
type outcome struct {
	op     *op
	start  time.Time     // actual send
	due    time.Time     // scheduled send (open loop); = start for closed loop
	lat    time.Duration // from due to full body
	status int
	body   []byte
	err    error
}

func (o *outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

func (o *outcome) send(s *server) {
	o.start = time.Now()
	if o.due.IsZero() {
		o.due = o.start
	}
	o.status, o.body, o.err = s.do(http.MethodPost, o.op.Path, o.op.Body)
	o.lat = time.Since(o.due)
}

// phase is the timed phase's record.
type phase struct {
	reads     []outcome // the sent prefix of the read sequence, in order
	writes    []outcome // the sent prefix of the write schedule
	elapsed   time.Duration
	exhausted bool // the read sequence ran out before the deadline
	statsPre  map[string]float64
	statsPost map[string]float64
	metPre    map[string]float64
	metPost   map[string]float64
	cpu       time.Duration
}

// statDelta is a /stats counter's change over the timed phase.
func (p *phase) statDelta(k string) float64 { return p.statsPost[k] - p.statsPre[k] }

// metricDelta is a /metrics sample's change over the timed phase.
func (p *phase) metricDelta(k string) float64 { return p.metPost[k] - p.metPre[k] }

// runPhase drives the workload for the given duration: w.readers
// closed-loop clients take the read sequence in order, and one open-loop
// writer sends each write at its scheduled time, however late the
// previous one ran. Responses are kept; nothing is checked here.
func runPhase(s *server, w *workloadDef, d time.Duration) (*phase, error) {
	p := &phase{}
	var err error
	if p.statsPre, err = s.stats(); err != nil {
		return nil, err
	}
	if p.metPre, err = s.metrics(); err != nil {
		return nil, err
	}
	cpu0, err := s.procCPU()
	if err != nil {
		return nil, err
	}

	reads := make([]outcome, len(w.reads))
	writes := make([]outcome, len(w.writes))
	var next, sentWrites atomic.Int64
	var exhausted atomic.Bool
	var wg sync.WaitGroup
	t0 := time.Now()
	deadline := t0.Add(d)
	for c := 0; c < w.readers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				if i >= int64(len(reads)) {
					exhausted.Store(true)
					return
				}
				reads[i].op = &w.reads[i]
				reads[i].send(s)
			}
		}()
	}
	if len(writes) > 0 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range writes {
				due := t0.Add(w.writes[i].At)
				if !due.Before(deadline) {
					return
				}
				time.Sleep(time.Until(due))
				writes[i].op = &w.writes[i]
				writes[i].due = due
				writes[i].send(s)
				sentWrites.Store(int64(i + 1))
			}
		}()
	}
	wg.Wait()
	p.elapsed = time.Since(t0)

	cpu1, err := s.procCPU()
	if err != nil {
		return nil, err
	}
	p.cpu = cpu1 - cpu0
	if p.statsPost, err = s.stats(); err != nil {
		return nil, err
	}
	if p.metPost, err = s.metrics(); err != nil {
		return nil, err
	}
	n := next.Load()
	if n > int64(len(reads)) {
		n = int64(len(reads))
	}
	p.reads = reads[:n]
	p.writes = writes[:sentWrites.Load()]
	p.exhausted = exhausted.Load()
	return p, nil
}

// runAudit sends the audit requests one at a time after the timed phase.
func runAudit(s *server, w *workloadDef) []outcome {
	out := make([]outcome, len(w.audit))
	for i := range out {
		out[i].op = &w.audit[i]
		out[i].send(s)
	}
	return out
}

// setup launches cfserve and registers the workload's tables, returning
// the running server and the time from launch until every table is
// registered and /healthz answers.
func setup(bin string, w *workloadDef) (*server, time.Duration, error) {
	t0 := time.Now()
	s, err := startServer(bin, w.conns())
	if err != nil {
		return nil, 0, err
	}
	if err := s.register(w.tables); err != nil {
		s.stop()
		return nil, 0, err
	}
	if err := s.waitHealthy(); err != nil {
		s.stop()
		return nil, 0, fmt.Errorf("after registering tables: %w", err)
	}
	return s, time.Since(t0), nil
}
