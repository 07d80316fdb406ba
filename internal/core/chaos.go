package core

import "xhc/internal/proto"

// ChaosConfig seeds deliberate protocol bugs for the verify harness's
// mutation self-test (DESIGN.md Section 10). Each field reintroduces one
// bug class that the XHC design rules out; internal/verify asserts that
// its invariant checkers catch every one of them. A nil Config.Chaos (the
// default) leaves the protocol untouched.
type ChaosConfig struct {
	// SkipAck makes pure members (ranks that lead no group) skip
	// publishing their completion ack — in Barrier, their arrival signal —
	// so their leaders wait forever in the finalization (or gather) phase:
	// a termination bug, caught by the engine's deadlock detector.
	SkipAck bool

	// EarlyReady publishes availability before the work that backs it —
	// the store/publish reordering the single-writer flag ordering exists
	// to prevent. In Bcast/Scatter/Allgather the chunk or staged block is
	// announced before its copy lands; in the reduce paths a member marks
	// its whole slice done before reducing it; in Barrier leaders release
	// the subtree before gathering its arrivals. Caught by the
	// data-correctness check (or Barrier's ordering stamps).
	EarlyReady bool

	// SharedAckLine packs every member-owned ack flag of a group onto one
	// shared cache line, silently dropping the per-writer line placement
	// of Fig. 10. Each flag still has a single writer, so shm's per-flag
	// owner check passes — only the write-tracker's per-line discipline
	// catches it.
	SharedAckLine bool

	// AckRegression republishes a stale (rewound) cumulative ack counter
	// on the second and later operations. The shm layer itself rejects
	// the non-monotone store; caught as an engine failure.
	AckRegression bool

	// Mutants carries the request-layer bugs shared with gxhc
	// (LostProgress, EarlyComplete, FuseCorrupt).
	proto.Mutants

	// MidOpTune applies a tuning plan in the middle of an operation — the
	// exact bug ApplyTuning's barrier sandwich exists to prevent. On the
	// root's first CICO broadcast the comm-global CICO threshold is moved
	// (to zero) after the root has dispatched but while peers may not have:
	// a peer that dispatches after the move takes the XPMEM path and waits
	// on an exposure sequence the root's CICO path never publishes. Caught
	// by the engine's deadlock detector (or, if every peer dispatched
	// early, the run stays clean — the self-test pins a schedule where the
	// window opens).
	MidOpTune bool
}

// chaos returns the active mutation set (the zero value when none).
func (c *Comm) chaos() ChaosConfig {
	if c.Cfg.Chaos == nil {
		return ChaosConfig{}
	}
	return *c.Cfg.Chaos
}
