package mem

import "math"

// rateSolver is the max-min fair rate solver shared by the intra-node
// System (memory controllers, fabric ports, cache ports, core streams) and
// the inter-node Fabric (NIC links, switch capacity). It owns the pooled
// scratch (the first-seen resource list and the generation stamp the
// resources are marked with), so steady-state solving does not allocate.
// The algorithm and its floating-point evaluation order are load-bearing:
// the reproduction gate requires bit-identical outputs, so this code was
// moved here verbatim from the System — do not "simplify" it algebraically
// (see the note inside solve).
type rateSolver struct {
	res []*resource
	gen uint64

	// Calls counts non-empty solves; FastPath counts those resolved by
	// the single-flow fast path; Flows and Rounds sum the flows handed to
	// the freeze loop and the rounds it ran; Fallbacks counts rounds where
	// the freeze loop made no progress and everything was frozen at the
	// current bound (numerical corner).
	Calls     int64
	FastPath  int64
	Flows     int64
	Rounds    int64
	Fallbacks int64
}

// solve computes max-min fair rates: repeatedly find the most constrained
// resource, freeze the flows it bottlenecks at its fair share, subtract,
// and continue. Per-flow rate caps are modeled as an implicit private
// resource. All scratch state lives on the solver and the resources
// themselves (generation-stamped).
func (rs *rateSolver) solve(flows []*flow) {
	if len(flows) == 0 {
		return
	}
	rs.Calls++
	if len(flows) == 1 {
		// Fast path: a lone flow runs at its most constrained resource (or
		// its private cap) — no scratch setup, no iteration.
		f := flows[0]
		if len(f.res) > 0 || f.rateCap > 0 {
			best := math.Inf(1)
			for _, r := range f.res {
				if r.capacity < best {
					best = r.capacity
				}
			}
			if f.rateCap > 0 && f.rateCap < best {
				best = f.rateCap
			}
			f.rate = best
			rs.FastPath++
			return
		}
	}
	// Note: no multi-flow early exit here, even when every flow shares one
	// bottleneck. The freeze loop below mutates remCap/undecided as it goes,
	// and in floating point (C - k*best)/(n-k) can land an ulp above best,
	// deferring a flow to a later round at a slightly different rate.
	// Assigning best to everyone is algebraically equal but not bit-equal,
	// and the reproduction gate requires bit-identical outputs.
	//
	// Resources in first-seen order over the id-ordered flows: deterministic.
	rs.gen++
	gen := rs.gen
	resList := rs.res[:0]
	for _, f := range flows {
		f.rate = -1
		for _, r := range f.res {
			if r.seenGen != gen {
				r.seenGen = gen
				r.remCap = r.capacity
				r.undecided = 0
				resList = append(resList, r)
			}
		}
	}
	rs.res = resList
	rs.Flows += int64(len(flows))
	for _, f := range flows {
		for _, r := range f.res {
			r.undecided++
		}
	}
	undecided := len(flows)
	for undecided > 0 {
		rs.Rounds++
		// Most constrained resource (or flow cap) first.
		best := math.Inf(1)
		for _, r := range resList {
			if r.undecided > 0 {
				share := r.remCap / float64(r.undecided)
				if share < best {
					best = share
				}
			}
		}
		// A flow's private cap can be tighter than any shared resource.
		capBound := false
		for _, f := range flows {
			if f.rate < 0 && f.rateCap > 0 && f.rateCap < best {
				best = f.rateCap
				capBound = true
			}
		}
		progress := 0
		for _, f := range flows {
			if f.rate >= 0 {
				continue
			}
			freeze := false
			if f.rateCap > 0 && f.rateCap <= best {
				freeze = true
			}
			if !freeze && !capBound {
				for _, r := range f.res {
					if r.undecided > 0 && r.remCap/float64(r.undecided) <= best {
						freeze = true
						break
					}
				}
			}
			if freeze {
				rate := best
				if f.rateCap > 0 && f.rateCap < rate {
					rate = f.rateCap
				}
				f.rate = rate
				for _, r := range f.res {
					r.remCap -= rate
					if r.remCap < 0 {
						r.remCap = 0
					}
					r.undecided--
				}
				progress++
				undecided--
			}
		}
		if progress == 0 {
			// Numerical corner: freeze everything at the current bound.
			// Counted so calibration drift is observable instead of
			// silently absorbed (see DESIGN.md §8).
			rs.Fallbacks++
			for _, f := range flows {
				if f.rate < 0 {
					f.rate = best
					for _, r := range f.res {
						r.remCap -= best
						if r.remCap < 0 {
							r.remCap = 0
						}
						r.undecided--
					}
					undecided--
				}
			}
		}
	}
}
