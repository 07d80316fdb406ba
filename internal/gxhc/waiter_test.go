package gxhc

import "testing"

// TestSpinBudgetPolicy pins the group-size-aware spin budget. The policy —
// not a timing measurement — is the regression test for the P2 barrier
// parking cliff: small fan-ins must get a budget large enough that tiny
// ops on undersubscribed or lightly time-sliced machines stay in the
// yielding spin phase instead of paying a scheduler handoff per op, and
// the budget must shrink monotonically to the floor as groups widen (a
// wide group's tail waiter parking once is cheaper than it yielding
// through the whole fan-in).
func TestSpinBudgetPolicy(t *testing.T) {
	c := MustNew(1, Config{})
	cases := []struct {
		fanin int
		want  int
	}{
		{1, spinProbes * spinScaleMax},
		{2, spinProbes * spinScaleMax},
		{4, spinProbes * 4},
		{8, spinProbes * 2}, // the regressed P2/P8 np=8 flat-group shape
		{16, spinProbes},
		{256, spinProbes},
		{1024, spinProbes},
		{0, spinProbes * spinScaleMax}, // degenerate inputs clamp, not panic
		{-3, spinProbes * spinScaleMax},
	}
	for _, tc := range cases {
		if got := c.spinBudgetFor(tc.fanin); got != tc.want {
			t.Errorf("spinBudgetFor(%d) = %d, want %d", tc.fanin, got, tc.want)
		}
	}
	// Monotone non-increasing in fan-in, never below the parking floor.
	prev := c.spinBudgetFor(1)
	for f := 2; f <= 4096; f++ {
		b := c.spinBudgetFor(f)
		if b > prev {
			t.Fatalf("spinBudgetFor(%d) = %d > spinBudgetFor(%d) = %d", f, b, f-1, prev)
		}
		if b < spinProbes {
			t.Fatalf("spinBudgetFor(%d) = %d below floor %d", f, b, spinProbes)
		}
		prev = b
	}
}

// TestOpBudgetPolicy pins the payload cutoff: the fan-in-scaled budget
// applies only to small/control ops; once an op moves bulk data the wait
// drops to the parking floor, because yield-spinning through a
// tens-of-microseconds chunk copy steals scheduler slices from the writer
// (measured 2x on oversubscribed 1 MiB broadcasts).
func TestOpBudgetPolicy(t *testing.T) {
	c := MustNew(1, Config{})
	wide := c.spinBudgetFor(2)
	cases := []struct {
		nbytes, want int
	}{
		{0, wide},                  // barrier/acks on empty ops
		{64, wide},                 // latency-bound
		{spinLargeBytes - 1, wide}, // still small
		{spinLargeBytes, spinProbes},
		{1 << 20, spinProbes}, // bandwidth-bound
	}
	for _, tc := range cases {
		if got := c.opBudget(wide, tc.nbytes); got != tc.want {
			t.Errorf("opBudget(%d, %d) = %d, want %d", wide, tc.nbytes, got, tc.want)
		}
	}
}

// TestGroupCtlBudgetWiring checks the budget actually reaches the control
// blocks: a flat 8-rank communicator's single group must carry the
// 8-fan-in budget, and allgather's whole-communicator flags the n-fan-in
// one.
func TestGroupCtlBudgetWiring(t *testing.T) {
	c, err := New(8, Config{})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.stateFor(0)
	if err != nil {
		t.Fatal(err)
	}
	for l, lvl := range st.groups {
		for gi, ctl := range lvl {
			if want := c.spinBudgetFor(len(ctl.members)); ctl.spinBudget != want {
				t.Errorf("level %d group %d: spinBudget %d, want %d (fanin %d)",
					l, gi, ctl.spinBudget, want, len(ctl.members))
			}
		}
	}
	if want := c.spinBudgetFor(8); c.agBudget != want {
		t.Errorf("agBudget %d, want %d", c.agBudget, want)
	}
}
