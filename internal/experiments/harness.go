package experiments

import (
	"fmt"
	"io"
	"slices"
	"time"
)

// Config scales an experiment run. The defaults target interactive use;
// Scale=1 reproduces each experiment's full parameterization.
type Config struct {
	// Scale multiplies table sizes and trial counts; 1.0 = full scale,
	// smaller values shrink runs proportionally (floors keep statistics
	// meaningful). Zero means 1.0.
	Scale float64
	// Seed is the master seed; every trial derives from it.
	Seed uint64
	// Verbose adds per-trial progress lines.
	Verbose bool
}

func (c Config) withDefaults() Config {
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	return c
}

// scaleN shrinks a row count by Scale with a floor.
func (c Config) scaleN(full int64, floor int64) int64 {
	n := int64(float64(full) * c.Scale)
	if n < floor {
		n = floor
	}
	return n
}

// scaleTrials shrinks a trial count by Scale with a floor.
func (c Config) scaleTrials(full int, floor int) int {
	t := int(float64(full) * c.Scale)
	if t < floor {
		t = floor
	}
	return t
}

// Experiment is one reproducible paper artifact.
type Experiment struct {
	// ID is the experiment identifier used by cmd/cfbench (-exp E1).
	ID string
	// Artifact names the paper artifact reproduced ("Theorem 1", ...).
	Artifact string
	// Title is a one-line description.
	Title string
	// Run executes the experiment, writing human-readable tables to w.
	Run func(cfg Config, w io.Writer) error
}

// registry of experiments, populated by init() in the e*.go files.
var registry = map[string]Experiment{}

// register adds an experiment (init-time only).
func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("experiments: duplicate id %s", e.ID))
	}
	registry[e.ID] = e
}

// All returns every experiment sorted by ID.
func All() []Experiment {
	out := make([]Experiment, 0, len(registry))
	for _, e := range registry {
		out = append(out, e)
	}
	slices.SortFunc(out, func(a, b Experiment) int {
		// E1..E10: numeric-aware ordering.
		return idOrder(a.ID) - idOrder(b.ID)
	})
	return out
}

// idOrder maps "E10" → 10 for sorting; unknown shapes sort last by string.
func idOrder(id string) int {
	var n int
	if _, err := fmt.Sscanf(id, "E%d", &n); err != nil {
		return 1 << 20
	}
	return n
}

// ByID looks up one experiment.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		ids := make([]string, 0, len(registry))
		for _, x := range All() {
			ids = append(ids, x.ID)
		}
		return Experiment{}, fmt.Errorf("experiments: unknown id %q (have %v)", id, ids)
	}
	return e, nil
}

// Run executes one experiment with a header/footer.
func Run(e Experiment, cfg Config, w io.Writer) error {
	cfg = cfg.withDefaults()
	fmt.Fprintf(w, "=== %s — %s ===\n%s\n(scale=%.2f seed=%d)\n\n",
		e.ID, e.Artifact, e.Title, cfg.Scale, cfg.Seed)
	start := time.Now()
	if err := e.Run(cfg, w); err != nil {
		return fmt.Errorf("experiments: %s: %w", e.ID, err)
	}
	fmt.Fprintf(w, "[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

// RunAll executes every experiment in order.
func RunAll(cfg Config, w io.Writer) error {
	for _, e := range All() {
		if err := Run(e, cfg, w); err != nil {
			return err
		}
	}
	return nil
}
