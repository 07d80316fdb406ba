package tune

import (
	"fmt"
	"sync"

	"xhc/internal/core"
	"xhc/internal/env"
	"xhc/internal/gxhc"
	"xhc/internal/mem"
	"xhc/internal/obs"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

// OnlineOpts configures an online tuning run: the candidate plan set
// (plans[0] is the construction plan every other candidate must be
// boundary-switchable from), the round structure, and the bandit seed.
type OnlineOpts struct {
	Plans       []Plan
	Rounds      int
	OpsPerRound int
	Bytes       int
	Seed        uint64
}

func (o OnlineOpts) defaults() OnlineOpts {
	if o.Plans == nil {
		o.Plans = OnlinePlans()
	}
	if o.Rounds == 0 {
		o.Rounds = 3 * len(o.Plans)
	}
	if o.OpsPerRound == 0 {
		o.OpsPerRound = 8
	}
	if o.Bytes == 0 {
		o.Bytes = 8 << 10
	}
	if o.Seed == 0 {
		o.Seed = 0x7e1e8e7a11a9
	}
	return o
}

// OnlineResult reports an online run: the best plan by running mean, the
// arm chosen each round, and the per-arm statistics.
type OnlineResult struct {
	Best     Plan
	Trace    []int
	Means    []float64
	Pulls    []int64
	Switches int
}

// onlineState is the rank-0 decision state shared across rounds. Every
// method runs inside the communicator's quiesced Retune window, so plain
// fields need no locking on either backend.
type onlineState struct {
	plans []Plan
	b     *Bandit
	win   RewardWindow
	arm   int
	trace []int
}

func newOnlineState(plans []Plan, seed uint64) *onlineState {
	return &onlineState{plans: plans, b: NewBandit(len(plans), seed)}
}

// step makes one round's plan decision: credit the finished round's
// samples to the arm that ran them, bias exploration by critical-path
// blame, and pick the next arm. The caller must have folded the recorder
// into reg (obs.World.Sync) first.
func (s *onlineState) step(reg *obs.Registry, op obs.OpCode, round int) int {
	if mean, n := s.win.Delta(reg, op); round > 0 && n > 0 {
		s.b.Observe(s.arm, mean)
	}
	if bias := BiasArm(reg.Snapshot(), s.plans); bias >= 0 {
		s.b.SetBias(bias)
	}
	s.arm = s.b.Next()
	s.trace = append(s.trace, s.arm)
	return s.arm
}

func (s *onlineState) result() OnlineResult {
	r := OnlineResult{
		Best:  s.plans[s.b.Best()],
		Trace: s.trace,
		Means: s.b.Means(),
		Pulls: s.b.Pulls(),
	}
	for i := 1; i < len(s.trace); i++ {
		if s.trace[i] != s.trace[i-1] {
			r.Switches++
		}
	}
	return r
}

// RunOnlineSim drives the bandit against a live simulated communicator:
// each round opens with a Retune at the op boundary — rank 0 folds the
// recorder (World.Sync), reads the new histogram samples as the previous
// arm's reward, and installs the chosen plan — then runs OpsPerRound
// broadcasts under it. The simulated clock makes the whole run, including
// the bandit's choices, deterministic for a fixed seed.
func RunOnlineSim(platform string, nranks int, o OnlineOpts) (OnlineResult, error) {
	o = o.defaults()
	if err := validateOnlineSet(o.Plans); err != nil {
		return OnlineResult{}, err
	}
	top := topo.ByName(platform)
	if top == nil {
		return OnlineResult{}, fmt.Errorf("tune: unknown platform %q", platform)
	}
	if nranks == 0 {
		nranks = top.NCores
	}
	m, err := top.Map(topo.MapCore, nranks)
	if err != nil {
		return OnlineResult{}, err
	}
	reg := obs.NewRegistry(false)
	w := env.NewWorld(top, m)
	// Observe just this world (the package-global env.ObserveWorlds hook
	// would leak the registry into unrelated worlds).
	wo := reg.NewWorld(top.Name, nranks, obs.SimTicksPerUS, w.Sys.Eng.Clock())
	wo.InitDistance(w.Topo, w.Map)
	w.Obs = wo
	w.Sys.OnFlow = wo.FlowHook()

	cfg, err := o.Plans[0].CoreConfig()
	if err != nil {
		return OnlineResult{}, err
	}
	comm, err := core.New(w, cfg)
	if err != nil {
		return OnlineResult{}, err
	}
	bufs := make([]*mem.Buffer, nranks)
	for r := 0; r < nranks; r++ {
		bufs[r] = w.NewBufferAt(fmt.Sprintf("tune.b%d", r), r, o.Bytes)
	}
	st := newOnlineState(o.Plans, o.Seed)
	if err := w.Run(func(p *env.Proc) {
		for round := 0; round < o.Rounds; round++ {
			round := round
			comm.Retune(p, func() core.Tuning {
				w.Obs.Sync()
				arm := st.step(reg, obs.OpBcast, round)
				return o.Plans[arm].CoreTuning()
			})
			for k := 0; k < o.OpsPerRound; k++ {
				comm.Bcast(p, bufs[p.Rank], 0, o.Bytes, 0)
			}
		}
	}); err != nil {
		return OnlineResult{}, err
	}
	return st.result(), nil
}

// RunOnlineGxhc is the same loop on the real-concurrency backend: one
// goroutine per rank, the plan decided inside gxhc.Retune's quiesced
// window (every rank parked in the rendezvous, no requests in flight, so
// rank 0 may fold and read the wall-clock recorder safely). Rewards are
// wall-clock here, so the chosen plan varies run to run — the run's
// invariants (correct data across switches, quiesced application) are
// what the verify harness pins.
func RunOnlineGxhc(nranks int, o OnlineOpts) (OnlineResult, error) {
	o = o.defaults()
	if err := validateOnlineSet(o.Plans); err != nil {
		return OnlineResult{}, err
	}
	reg := obs.NewRegistry(false)
	wo := reg.NewWorld("gxhc", nranks, obs.WallTicksPerUS, obs.WallClock())
	wo.Rec.Backend = "gxhc"
	comm, err := gxhc.New(nranks, o.Plans[0].GxhcConfig())
	if err != nil {
		return OnlineResult{}, err
	}
	comm.AttachRecorder(wo.Rec)

	st := newOnlineState(o.Plans, o.Seed)
	errs := make([]error, nranks)
	var wg sync.WaitGroup
	for r := 0; r < nranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			buf := make([]byte, o.Bytes)
			for round := 0; round < o.Rounds; round++ {
				comm.Retune(rank, func() gxhc.Tuning {
					wo.Sync()
					arm := st.step(reg, obs.OpBcast, round)
					return o.Plans[arm].GxhcTuning()
				})
				for k := 0; k < o.OpsPerRound; k++ {
					if rank == 0 {
						for i := range buf {
							buf[i] = byte(round + k + i)
						}
					}
					comm.Bcast(rank, buf, 0)
					for i := range buf {
						if buf[i] != byte(round+k+i) {
							errs[rank] = fmt.Errorf("tune: gxhc online: rank %d round %d op %d: byte %d corrupt across plan switch",
								rank, round, k, i)
							return
						}
					}
				}
			}
		}(r)
	}
	wg.Wait()
	wo.Finish(mem.Stats{}, sim.EngineStats{})
	for _, e := range errs {
		if e != nil {
			return OnlineResult{}, e
		}
	}
	return st.result(), nil
}
