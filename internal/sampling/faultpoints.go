package sampling

import "samplecf/internal/faults"

// drawPoint is the sampling-draw injection point: consulted once per draw
// call (fresh uniform draws, resumable extension rounds, and per-stratum
// directory draws alike), so a chaos schedule can fail or stall "the Nth
// draw the workload performs" deterministically. Disarmed cost: one atomic
// load per draw.
var drawPoint = faults.Register("sampling.draw")
