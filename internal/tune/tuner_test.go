package tune

import (
	"reflect"
	"testing"
)

// badPlan is a deliberately pessimal candidate: a 256-byte pipelining
// granule multiplies per-chunk flag traffic on every payload above the
// CICO threshold. The tuner must never let it win a cell it loses.
func badPlan() Plan {
	p := DefaultPlan()
	p.Name = "bad-chunk-256"
	p.ChunkBytes = []int{256}
	return p
}

// TestTunerNeverRegressesPinnedCell is the end-to-end loop: seed the
// candidate set with the deliberately bad plan, sweep-and-select, and
// prove (a) the persisted winner beats or ties the default on every
// pinned cell in the sweep's own measurements, and (b) a fresh replay
// through the repro gate (the same code path as xhctune -check) confirms
// no cell regresses past the 5%/1us thresholds.
func TestTunerNeverRegressesPinnedCell(t *testing.T) {
	const np = 40 // a node slice: keeps the e2e loop seconds-fast
	plans := append(CandidatePlans(), badPlan())
	f, bench, err := Sweep(SweepOpts{Platform: "ARM-N1", NRanks: np, Quick: true, Plans: plans})
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Cells) != len(PinnedCells("ARM-N1")) {
		t.Fatalf("sweep selected %d cells, want %d", len(f.Cells), len(PinnedCells("ARM-N1")))
	}
	for _, cp := range f.Cells {
		if cp.BaselineUS <= 0 {
			t.Errorf("%s: sweep lost the default baseline", cp.Key())
		}
		if cp.TunedUS > cp.BaselineUS {
			t.Errorf("%s: winner %s (%.2fus) regresses the default (%.2fus)",
				cp.Key(), cp.Plan.Name, cp.TunedUS, cp.BaselineUS)
		}
	}
	if len(bench) != 2*len(f.Cells) {
		t.Fatalf("bench trajectory has %d rows, want %d", len(bench), 2*len(f.Cells))
	}

	results, regressions, err := Check(f, CheckOpts{NRanks: np, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if regressions != 0 {
		for _, r := range results {
			if r.Regressed {
				t.Errorf("repro gate: %s regressed (default %.2fus, tuned %.2fus)", r.Key, r.DefaultUS, r.TunedUS)
			}
		}
	}
	// The simulated clock makes the replay exact: the gate's fresh tuned
	// measurement must reproduce what the sweep recorded.
	for _, r := range results {
		if r.TunedUS != r.RecordedUS {
			t.Errorf("repro gate: %s replayed %.4fus, plan file recorded %.4fus", r.Key, r.TunedUS, r.RecordedUS)
		}
	}
}

// TestOnlineSimDeterministic pins the whole online loop — simulated
// clock, telemetry fold, reward window, bandit draws — as replayable.
func TestOnlineSimDeterministic(t *testing.T) {
	opts := OnlineOpts{Rounds: 10, OpsPerRound: 4}
	a, err := RunOnlineSim("ARM-N1", 40, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunOnlineSim("ARM-N1", 40, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("online sim run not deterministic:\n%+v\nvs\n%+v", a, b)
	}
	if len(a.Trace) != opts.Rounds {
		t.Fatalf("trace has %d rounds, want %d", len(a.Trace), opts.Rounds)
	}
}

// TestOnlineSimAvoidsBadPlan seeds a two-arm race between the default and
// the pessimal plan on large payloads: after the bandit has pulled both,
// its running means must rank the bad arm worse and Best must avoid it.
func TestOnlineSimAvoidsBadPlan(t *testing.T) {
	plans := []Plan{DefaultPlan(), badPlan()}
	res, err := RunOnlineSim("ARM-N1", 40, OnlineOpts{
		Plans: plans, Rounds: 8, OpsPerRound: 4, Bytes: 64 << 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best.Name == "bad-chunk-256" {
		t.Fatalf("bandit settled on the pessimal plan: %+v", res)
	}
	if res.Pulls[1] == 0 {
		t.Fatalf("bandit never explored arm 1: %+v", res)
	}
	if res.Means[1] <= res.Means[0] {
		t.Fatalf("pessimal plan measured faster than default (%.2f vs %.2f) — reward window broken?",
			res.Means[1], res.Means[0])
	}
	if res.Switches == 0 {
		t.Fatal("no plan switches happened at all")
	}
}

// TestOnlineGxhc runs the bandit against the real-concurrency backend:
// plan switches at quiesced boundaries with live goroutines, with the
// in-driver byte oracle checking every broadcast across every switch.
func TestOnlineGxhc(t *testing.T) {
	res, err := RunOnlineGxhc(8, OnlineOpts{Rounds: 8, OpsPerRound: 4, Bytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trace) != 8 {
		t.Fatalf("trace has %d rounds, want 8", len(res.Trace))
	}
	for _, arm := range res.Trace {
		if arm < 0 || arm >= len(OnlinePlans()) {
			t.Fatalf("trace names arm %d outside the candidate set", arm)
		}
	}
}

// TestOnlineRejectsUnswitchablePlan: a candidate that moves a
// construction-time knob must be refused up front, not half-applied.
func TestOnlineRejectsUnswitchablePlan(t *testing.T) {
	flat := DefaultPlan()
	flat.Name = "flat"
	flat.Sensitivity = "flat"
	if _, err := RunOnlineSim("ARM-N1", 8, OnlineOpts{Plans: []Plan{DefaultPlan(), flat}}); err == nil {
		t.Fatal("online run accepted a construction-time plan change")
	}
}

// TestBanditDeterministic pins the bandit's draw stream and its bias
// handling: same seed, same observations, same choices; a bias is
// consumed by exactly one exploration.
func TestBanditDeterministic(t *testing.T) {
	run := func() []int {
		b := NewBandit(3, 42)
		var picks []int
		for i := 0; i < 12; i++ {
			arm := b.Next()
			picks = append(picks, arm)
			b.Observe(arm, float64(10+arm*5)) // arm 0 is best
		}
		return picks
	}
	a, bb := run(), run()
	if !reflect.DeepEqual(a, bb) {
		t.Fatalf("bandit not deterministic: %v vs %v", a, bb)
	}
	for i := 0; i < 3; i++ {
		if a[i] != i {
			t.Fatalf("arm %d not pulled in the bootstrap round: %v", i, a)
		}
	}
	b := NewBandit(2, 7)
	b.Observe(0, 1)
	b.Observe(1, 100)
	b.SetBias(1)
	seen := false
	for i := 0; i < 64 && !seen; i++ {
		seen = b.Next() == 1
	}
	if !seen {
		t.Fatal("biased arm never explored in 64 rounds")
	}
	if b.Best() != 0 {
		t.Fatalf("Best = %d, want 0", b.Best())
	}
}
