package mem

import (
	"fmt"
	"math"
)

// oracle re-solves flows from scratch on copies, so the live flows, their
// rates and the System's solver counters stay untouched. Its scratch is
// reused across solves.
type oracle struct {
	copies []flow
	ptrs   []*flow
}

// solve runs the production solver on copies of flows (in the given
// order) and returns the copies, whose rates are the from-scratch result.
// It borrows the System's solver so the resources' generation stamps stay
// monotonic, then restores the solver's counters.
func (o *oracle) solve(s *System, flows []*flow) []*flow {
	o.copies = o.copies[:0]
	for _, f := range flows {
		o.copies = append(o.copies, *f)
	}
	o.ptrs = o.ptrs[:0]
	for i := range o.copies {
		o.ptrs = append(o.ptrs, &o.copies[i])
	}
	saved := s.solver
	s.solver.solve(o.ptrs)
	gen, res := s.solver.gen, s.solver.res
	s.solver = saved
	s.solver.gen, s.solver.res = gen, res
	return o.ptrs
}

// mismatch compares the live flows' rates with the oracle's copies bit for
// bit and describes the first difference.
func mismatch(live, want []*flow) error {
	for i, f := range live {
		if math.Float64bits(f.rate) != math.Float64bits(want[i].rate) {
			return fmt.Errorf("flow %d (%d of %d): rate %v (%#x), from-scratch %v (%#x)",
				f.id, i, len(live), f.rate, math.Float64bits(f.rate),
				want[i].rate, math.Float64bits(want[i].rate))
		}
	}
	return nil
}

// wholeSetMismatch checks every active flow's rate against one solve of
// the whole active set — the scheme reschedule used before it re-solved
// only the changed flow's component.
func (o *oracle) wholeSetMismatch(s *System) error {
	return mismatch(s.active, o.solve(s, s.active))
}

// components partitions the active flows into the connected components of
// the flow/resource graph, computed from scratch by union-find over the
// flows' resource sets (independent of the per-resource flow lists). Each
// component lists its flows in id order.
func components(active []*flow) [][]*flow {
	parent := make([]int, len(active))
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(i int) int {
		for parent[i] != i {
			parent[i] = parent[parent[i]]
			i = parent[i]
		}
		return i
	}
	owner := map[*resource]int{}
	for i, f := range active {
		for _, r := range f.res {
			if j, ok := owner[r]; ok {
				parent[find(i)] = find(j)
			} else {
				owner[r] = i
			}
		}
	}
	index := map[int]int{}
	var comps [][]*flow
	for i, f := range active {
		root := find(i)
		k, ok := index[root]
		if !ok {
			k = len(comps)
			index[root] = k
			comps = append(comps, nil)
		}
		comps[k] = append(comps[k], f)
	}
	return comps
}

// componentMismatch checks every active flow's rate against a
// from-scratch solve of its own component, and checks that a System which
// believes its active set is connected really has one component.
func (o *oracle) componentMismatch(s *System) error {
	comps := components(s.active)
	if s.connected && len(comps) > 1 {
		return fmt.Errorf("connected is set but the %d active flows form %d components",
			len(s.active), len(comps))
	}
	for _, c := range comps {
		if err := mismatch(c, o.solve(s, c)); err != nil {
			return err
		}
	}
	return nil
}

// listMismatch checks the per-resource flow lists against the active set:
// every resource lists exactly the active flows crossing it, each once,
// and every flow's slots point at its own entries.
func listMismatch(s *System) error {
	want := map[*resource]map[*flow]bool{}
	for _, f := range s.active {
		for k, r := range f.res {
			if want[r] == nil {
				want[r] = map[*flow]bool{}
			}
			want[r][f] = true
			i := f.slot[k]
			if i < 0 {
				continue
			}
			if int(i) >= len(r.flows) || r.flows[i].f != f || r.flows[i].k != k {
				return fmt.Errorf("flow %d: slot %d of %s points at a foreign entry", f.id, k, r.name)
			}
		}
	}
	for _, r := range s.resources() {
		seen := map[*flow]bool{}
		for _, ref := range r.flows {
			if seen[ref.f] {
				return fmt.Errorf("%s lists flow %d twice", r.name, ref.f.id)
			}
			seen[ref.f] = true
			if !want[r][ref.f] {
				return fmt.Errorf("%s lists flow %d, which is not an active flow crossing it", r.name, ref.f.id)
			}
		}
		if len(seen) != len(want[r]) {
			return fmt.Errorf("%s lists %d flows, %d active flows cross it", r.name, len(seen), len(want[r]))
		}
	}
	return nil
}

// resources lists every bandwidth resource of the System.
func (s *System) resources() []*resource {
	var all []*resource
	all = append(all, s.memRes...)
	all = append(all, s.numaPort...)
	if s.xsLink != nil {
		all = append(all, s.xsLink)
	}
	all = append(all, s.llcPort...)
	all = append(all, s.slcPort...)
	return append(all, s.coreRes...)
}
