package mem_test

import (
	"fmt"
	"testing"

	"xhc/internal/coll"
	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/topo"
)

// TestLocalResolveMatchesWholeSet runs the paper's ARM-N1 allreduce cells
// at 160 ranks and, after every reschedule, compares each active flow's
// rate with a solve of the whole active set — what every reschedule
// computed before re-solves became component-local. Any bit difference
// fails: the simulated reports must not move.
func TestLocalResolveMatchesWholeSet(t *testing.T) {
	for _, c := range []struct {
		comp string
		size int
	}{
		{"xhc-tree", 1 << 20},
		{"xbrc", 64 << 10},
	} {
		t.Run(fmt.Sprintf("%s/%d", c.comp, c.size), func(t *testing.T) {
			tp := topo.ArmN1()
			m, err := tp.Map(topo.MapCore, tp.NCores)
			if err != nil {
				t.Fatal(err)
			}
			w := env.NewWorld(tp, m)
			comp, err := coll.New(c.comp, w)
			if err != nil {
				t.Fatal(err)
			}
			var first error
			checked := mem.CheckWholeSet(w.Sys, func(err error) {
				if first == nil {
					first = err
				}
			})
			sb := make([]*mem.Buffer, w.N)
			rb := make([]*mem.Buffer, w.N)
			for r := range sb {
				sb[r] = w.NewBufferAt(fmt.Sprintf("s%d", r), r, c.size)
				rb[r] = w.NewBufferAt(fmt.Sprintf("r%d", r), r, c.size)
			}
			// Two iterations: the first runs from cold caches, the second
			// with the residency the first left behind.
			if err := w.Run(func(p *env.Proc) {
				for it := 0; it < 2; it++ {
					p.Dirty(sb[p.Rank])
					p.HarnessBarrier()
					comp.Allreduce(p, sb[p.Rank], rb[p.Rank], c.size, mpi.Float64, mpi.Sum)
					p.HarnessBarrier()
				}
			}); err != nil {
				t.Fatal(err)
			}
			if first != nil {
				t.Fatalf("after %d reschedules: %v", checked(), first)
			}
			if checked() == 0 {
				t.Fatal("no reschedule was checked")
			}
			t.Logf("%d reschedules matched the whole-set solve", checked())
		})
	}
}
