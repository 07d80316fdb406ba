package verify

import (
	"fmt"

	"xhc/internal/coll"
	"xhc/internal/core"
	"xhc/internal/env"
	"xhc/internal/gxhc"
	"xhc/internal/proto"
	"xhc/internal/sim"
)

// MutationOutcome reports one self-test entry: whether the run behaved as
// expected (clean variants pass, every seeded bug is caught).
type MutationOutcome struct {
	Name   string
	Mutant bool // false for the clean control runs
	OK     bool
	Detail string
}

// mutationCase is the base configuration the seeded bugs run on: a
// two-NUMA node with a two-level hierarchy, so there are pure members,
// intermediate (forwarding) leaders, and multi-member leaf groups — every
// role a mutant needs.
func mutationCase() Case {
	return Case{
		CfgSeed:       1,
		Plat:          platforms[1], // 1 socket x 2 NUMA x 4 cores
		Ranks:         8,
		Root:          0,
		Sens:          "numa",
		Kind:          KindBcast,
		Bytes:         32 << 10,
		Dt:            0,
		Op:            0,
		Chunk:         4 << 10,
		CICOThreshold: 1 << 10,
		Flags:         core.SingleFlag,
		RegCache:      true,
		Baseline:      "tuned",
		Ops:           4,
	}
}

// concMutationCase extends the mutation base case with a concurrency
// phase: the parent plus an overlapping split, every member keeping three
// small fusable broadcasts in flight.
func concMutationCase() Case {
	c := mutationCase()
	c.Conc = &ConcCase{
		InFlight: 3,
		Rounds:   2,
		Comms: []ConcComm{
			{Kind: KindBcast, Bytes: 256, Root: 1},
			{Ranks: []int{0, 2, 4, 6}, Kind: KindBcast, Bytes: 512, Root: 0},
		},
	}
	return c
}

// runConcMutant runs the concurrency phase with the given seeded bug under
// the plain FIFO schedule (deterministic batching, so the fused path the
// mutants target is guaranteed to form).
func runConcMutant(c Case, chaos *core.ChaosConfig) error {
	c.Chaos = chaos
	return runConcSim(c, Schedule{}, nil)
}

// requestMutants are the request-layer bugs, each run on both backends.
var requestMutants = []struct {
	name    string
	mutants proto.Mutants
}{
	// Termination: the lane runs the op but drops its completion.
	{"lost-progress", proto.Mutants{LostProgress: true}},
	// Data: completion published without running the body; the
	// per-request byte check sees the junk pre-fill.
	{"early-complete", proto.Mutants{EarlyComplete: true}},
	// Data: the fused root rotates every staged sub-op.
	{"fuse-corrupt", proto.Mutants{FuseCorrupt: true}},
}

// faultSchedule is the perturbed schedule the clean control runs under:
// random tie-breaking, wake jitter and the full fault set. The unmutated
// protocol must survive it.
func faultSchedule() Schedule {
	return Schedule{SchedSeed: 0x5eed, Tie: 1, WakeJitterPS: int64(200 * sim.Nanosecond), Faults: true}
}

// runMutant runs the base case with the given seeded bug under the plain
// FIFO schedule (the mutants are constructed to be caught without needing
// schedule luck).
func runMutant(c Case, chaos *core.ChaosConfig) error {
	return runMutantSched(c, chaos, Schedule{})
}

// runMutantSched is runMutant under an explicit schedule, for the mutants
// whose detection needs a straggler or jitter to open the window.
func runMutantSched(c Case, chaos *core.ChaosConfig, s Schedule) error {
	c.Chaos = chaos
	cfg, err := c.coreConfig()
	if err != nil {
		return err
	}
	_, err = runSim(c, s, "xhc", nil, func(w *env.World) (coll.Component, *core.Comm, error) {
		cc, err := core.New(w, cfg)
		return cc, cc, err
	})
	return err
}

// RunMutationSelfTest exercises the checker against its seeded protocol
// bugs (DESIGN.md Section 10): the unmutated tree must pass — including
// under fault injection — and every mutant must be caught. includeGoComm
// adds the gxhc StaleReady mutant, which injects a genuine data race and
// therefore must be skipped under the race detector.
func RunMutationSelfTest(includeGoComm bool) []MutationOutcome {
	var out []MutationOutcome
	record := func(name string, mutant bool, err error) {
		o := MutationOutcome{Name: name, Mutant: mutant}
		if mutant {
			o.OK = err != nil
			if err != nil {
				o.Detail = err.Error()
			} else {
				o.Detail = "NOT CAUGHT"
			}
		} else {
			o.OK = err == nil
			if err != nil {
				o.Detail = err.Error()
			}
		}
		out = append(out, o)
	}

	base := mutationCase()

	// Clean controls: FIFO and the full fault schedule.
	record("clean/fifo", false, runMutant(base, nil))
	record("clean/faults", false, runMutantSched(base, nil, faultSchedule()))

	// Termination: pure members never ack, leaders deadlock.
	record("skip-ack", true, runMutant(base, &core.ChaosConfig{SkipAck: true}))

	// Data: a forwarding leader announces its staged CICO copy before
	// performing it; its children pull the previous slot contents. The
	// CICO sizing makes the stale read certain (the child's copy lands
	// before the leader's two back-to-back copies can).
	early := base
	early.Bytes = 2 << 10
	early.CICOThreshold = 4 << 10
	record("early-ready", true, runMutant(early, &core.ChaosConfig{EarlyReady: true}))

	// Single-writer line discipline: member acks packed onto one line.
	record("shared-ack-line", true, runMutant(base, &core.ChaosConfig{SharedAckLine: true}))

	// Monotonicity: a rewound ack counter; shm's own defense fires.
	record("ack-regression", true, runMutant(base, &core.ChaosConfig{AckRegression: true}))

	// The newer collectives, each with a clean control plus seeded bugs.
	barrier := base
	barrier.Kind = KindBarrier
	barrier.Bytes = 0
	record("barrier/clean", false, runMutantSched(barrier, nil, faultSchedule()))
	// Termination: a pure member never signals arrival; its leader's gather
	// hangs.
	record("barrier/skip-ack", true, runMutant(barrier, &core.ChaosConfig{SkipAck: true}))
	// Ordering: the release fires before the arrivals are gathered; under
	// the straggler schedule some rank exits while another's stamp is stale.
	record("barrier/early-ready", true, runMutantSched(barrier, &core.ChaosConfig{EarlyReady: true}, faultSchedule()))

	scatter := base
	scatter.Kind = KindScatter
	record("scatter/clean", false, runMutant(scatter, nil))
	// Termination: the subtree-ordered ack chain toward the root breaks.
	record("scatter/skip-ack", true, runMutant(scatter, &core.ChaosConfig{SkipAck: true}))
	// Data: the CICO root announces its staged blocks before the copy-in
	// lands; children drain the previous slot. Sized onto the CICO path
	// (blockLen <= threshold and N blocks fit in half the CICO buffer).
	scatterCICO := scatter
	scatterCICO.Bytes = 512
	scatterCICO.CICOThreshold = 8 << 10
	record("scatter/early-ready", true, runMutant(scatterCICO, &core.ChaosConfig{EarlyReady: true}))

	// Data: a reducer publishes its whole reduce_done slice before folding
	// anything; the root drains unreduced bytes.
	reduce := base
	reduce.Kind = KindReduce
	reduce.Root = 3
	record("reduce/clean", false, runMutant(reduce, nil))
	record("reduce/early-ready", true, runMutant(reduce, &core.ChaosConfig{EarlyReady: true}))

	// Data: a rank publishes its CICO push before staging its block; peers
	// assemble the previous op's slot contents. Under FIFO every rank's own
	// copy-in finishes before any peer reaches its slot, so the straggler
	// schedule is what opens the stale-read window (peers wake on the
	// straggler's early flag while its copy-in is still in flight).
	allgather := base
	allgather.Kind = KindAllgather
	allgather.Bytes = 512
	record("allgather/clean", false, runMutantSched(allgather, nil, faultSchedule()))
	record("allgather/early-ready", true, runMutantSched(allgather, &core.ChaosConfig{EarlyReady: true}, faultSchedule()))

	// The tuner mutant (DESIGN.md §17): a plan applied in the middle of an
	// operation instead of at the quiesced boundary ApplyTuning enforces.
	// Sized onto the CICO path (Bytes <= threshold): the root moves the
	// CICO/XPMEM boundary after it has dispatched; peers that dispatch the
	// same op afterwards take the XPMEM path and wait on an exposure the
	// root's CICO path never publishes — the deadlock detector converts the
	// hang. A clean control runs a legitimate boundary switch on the same
	// shape and must pass.
	tune := base
	tune.Bytes = 512
	tuneSwitch := tune
	tuneSwitch.Switch = &SwitchCase{AfterOp: 1, Chunk: 1 << 10, CICOThreshold: 0, FuseBytes: -1}
	record("tune/clean-switch", false, runMutant(tuneSwitch, nil))
	record("tune/mid-op-switch", true, runMutant(tune, &core.ChaosConfig{MidOpTune: true}))

	// The non-blocking concurrency runner (DESIGN.md §15): a clean control
	// per backend, then every request-layer mutant on both backends — the
	// simulated one (iconc/, deadlock detector) and the real-concurrency
	// one (goconc/, wall-clock Test deadline). The payloads sit inside the
	// fusion size class, so the fused traversal is on the path the mutants
	// corrupt.
	conc := concMutationCase()
	record("iconc/clean", false, runConcMutant(conc, nil))
	record("goconc/clean", false, runConcGxhc(conc, nil, nil, concCleanDeadline))
	for _, m := range requestMutants {
		record("iconc/"+m.name, true, runConcMutant(conc, &core.ChaosConfig{Mutants: m.mutants}))
		deadline := concCleanDeadline
		if m.mutants.LostProgress {
			deadline = concMutantDeadline // any timeout is the catch
		}
		record("goconc/"+m.name, true, runConcGxhc(conc, &gxhc.ChaosConfig{Mutants: m.mutants}, nil, deadline))
	}

	if includeGoComm {
		gc := base
		gc.Ranks = 9
		gc.Chunk = 4 << 10
		gc.Bytes = 64 << 10
		fs := faultSchedule() // the straggling root is what exposes the mutant
		record("gocomm/clean", false, runGoComm(gc, fs, nil, nil))
		record("gocomm/stale-ready", true, runGoComm(gc, fs, &gxhc.ChaosConfig{StaleReady: true}, nil))
	}
	return out
}

// SelfTestError folds outcomes into a single error (nil when all OK).
func SelfTestError(outs []MutationOutcome) error {
	for _, o := range outs {
		if !o.OK {
			return fmt.Errorf("mutation self-test: %s: %s", o.Name, o.Detail)
		}
	}
	return nil
}
