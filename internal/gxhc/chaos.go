package gxhc

import "xhc/internal/proto"

// ChaosConfig seeds a deliberate synchronization bug for the verify
// harness's mutation self-test (DESIGN.md Section 10). A nil Config.Chaos
// (the default) leaves the protocol untouched.
type ChaosConfig struct {
	// StaleReady makes broadcast members trust the exposure and copy
	// without waiting for the published-bytes counter — the effect of
	// reading the counter without the release/acquire ordering the
	// single-writer discipline provides. Members copy bytes their leader
	// has not written yet; caught by the data-correctness check. Note the
	// mutant introduces a genuine data race, so the self-test must not
	// run it under the race detector (which would abort the process).
	StaleReady bool

	// Mutants carries the request-layer bugs shared with core
	// (LostProgress, EarlyComplete, FuseCorrupt). None of them injects a
	// data race, so they run under the race detector too.
	proto.Mutants
}

// chaos returns the active mutation set (the zero value when none).
func (c *Comm) chaos() ChaosConfig {
	if c.cfg.Chaos == nil {
		return ChaosConfig{}
	}
	return *c.cfg.Chaos
}
