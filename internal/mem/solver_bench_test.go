package mem

import (
	"fmt"
	"testing"

	"xhc/internal/sim"
	"xhc/internal/topo"
)

// Fixture shapes for the solver benchmarks, all on ARM-N1's 160 cores:
//   - shared: every flow crosses one memory controller (one component with
//     a common bottleneck, the hard case for the max-min solver);
//   - numa: each flow crosses its own NUMA node's memory controller (8
//     components of 20 flows, the shape of xhc-tree's intra-NUMA level);
//   - disjoint: each flow only crosses its own core's streaming limit
//     (every flow its own component).
var fixtureKinds = []string{"shared", "numa", "disjoint"}

// solverFixture fills a fresh System's active set with n linked
// synthetic flows of the given kind (see fixtureKinds).
func solverFixture(s *System, n int, kind string) {
	for i := 0; i < n; i++ {
		core := i % len(s.coreRes)
		f := &flow{id: i + 1, remaining: 1 << 20}
		switch kind {
		case "shared":
			f.res = append(f.resArr[:0], s.memRes[0], s.coreRes[core])
		case "numa":
			f.res = append(f.resArr[:0], s.memRes[s.Topo.NUMA(core)], s.coreRes[core])
		case "disjoint":
			f.res = append(f.resArr[:0], s.coreRes[core])
		default:
			panic("unknown fixture kind " + kind)
		}
		s.active = append(s.active, f)
		f.link()
	}
}

// BenchmarkFlowSolver measures one max-min rate solve over the whole
// active set at several flow counts (ARM-N1 peaks at 160 concurrent
// flows, one per core).
func BenchmarkFlowSolver(b *testing.B) {
	for _, n := range []int{1, 8, 64, 160} {
		for _, kind := range fixtureKinds {
			b.Run(fmt.Sprintf("%s-%d", kind, n), func(b *testing.B) {
				s := Default(topo.ArmN1())
				solverFixture(s, n, kind)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.solveRates(s.active)
				}
			})
		}
	}
}

// BenchmarkReschedule measures the full reschedule path for an arrival
// (advance flows, re-solve the arriving flow's component, re-arm the
// completion event) at ARM-N1 scale.
func BenchmarkReschedule(b *testing.B) {
	for _, kind := range fixtureKinds {
		b.Run(fmt.Sprintf("%s-160", kind), func(b *testing.B) {
			s := Default(topo.ArmN1())
			solverFixture(s, 160, kind)
			f := s.active[len(s.active)-1]
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.reschedule(f, true)
			}
		})
	}
}

// padHeap fills the event heap far beyond what the measured windows push,
// so its backing array's growth stays off the measured path.
func padHeap(s *System) {
	for i := 0; i < 10000; i++ {
		s.Eng.At(sim.Time(1)<<50, func() {})
	}
}

// TestRescheduleZeroAllocs pins the steady-state allocation count of the
// scheduling hot path to zero: with the flow list, the solver scratch and
// the completion event all pooled, reschedule must not allocate at all.
//
// The one unavoidable amortized allocation is the event heap's backing
// array growing past a capacity boundary. The test pads the heap first and
// measures twice: append growth adds at least 25% slack, so two back-to-
// back 100-call windows cannot both cross a boundary, and the smaller of
// the two measurements is the true steady-state count.
func TestRescheduleZeroAllocs(t *testing.T) {
	s := Default(topo.ArmN1())
	solverFixture(s, 160, "shared")
	padHeap(s)
	f := s.active[0]
	s.reschedule(f, true) // warm the solver scratch
	a1 := testing.AllocsPerRun(100, func() { s.reschedule(f, true) })
	a2 := testing.AllocsPerRun(100, func() { s.reschedule(f, true) })
	if min := minF(a1, a2); min != 0 {
		t.Fatalf("reschedule allocates in steady state: %.2f allocs/op (runs: %.2f, %.2f)", min, a1, a2)
	}
}

// TestArrivalDepartureZeroAllocs pins the flow arrival and departure paths
// at 160 active flows to zero allocations: the per-resource flow lists,
// the component walk's stack and component list, and the flow pool must
// all be reused once warm. Each run retires the oldest flow and admits a
// replacement on the same resources, so on the numa fixture every step
// walks and re-solves one NUMA group, and on the shared fixture every step
// takes the connectivity shortcuts.
func TestArrivalDepartureZeroAllocs(t *testing.T) {
	for _, kind := range fixtureKinds {
		t.Run(kind, func(t *testing.T) {
			s := Default(topo.ArmN1())
			solverFixture(s, 160, kind)
			s.flowSeq = len(s.active)
			padHeap(s)
			var res [maxFlowRes]*resource
			step := func() {
				f := s.active[0]
				r := append(res[:0], f.res...)
				s.endFlow(f)
				s.startFlow(nil, r, 1<<20, 0)
			}
			for i := 0; i < 2*160; i++ {
				step() // warm every list, the pool and the walk scratch
			}
			a1 := testing.AllocsPerRun(100, step)
			a2 := testing.AllocsPerRun(100, step)
			if min := minF(a1, a2); min != 0 {
				t.Fatalf("arrival/departure allocates in steady state: %.2f allocs/op (runs: %.2f, %.2f)", min, a1, a2)
			}
		})
	}
}

func minF(a, b float64) float64 {
	if a < b {
		return a
	}
	return b
}
