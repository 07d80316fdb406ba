// Integration tests for the observability layer against real simulated
// worlds: phase spans partitioning a collective's latency, Chrome-trace
// export of a real run, and agreement between the standalone Table II
// collector and the registry's per-distance accounting.
package obs_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"xhc/internal/core"
	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/obs"
	"xhc/internal/sim"
	"xhc/internal/topo"
	"xhc/internal/trace"
)

// observe installs a fresh registry as the process-wide world observer for
// the duration of one test.
func observe(t *testing.T, traceEnabled bool) *obs.Registry {
	t.Helper()
	reg := obs.NewRegistry(traceEnabled)
	old := env.Observer
	env.ObserveWorlds(reg)
	t.Cleanup(func() { env.Observer = old })
	return reg
}

// runBcast builds an observed 64-rank world on Epyc-2P, runs one broadcast
// of n bytes, and returns the world, communicator and per-rank latencies
// in virtual picoseconds.
func runBcast(t *testing.T, n int, setup func(*env.World, *core.Comm)) (*env.World, []sim.Time) {
	t.Helper()
	const nranks = 64
	top := topo.Epyc2P()
	w := env.NewWorld(top, top.MustMap(topo.MapCore, nranks))
	c := core.MustNew(w, core.DefaultConfig())
	if setup != nil {
		setup(w, c)
	}
	bufs := make([]*mem.Buffer, nranks)
	for r := range bufs {
		bufs[r] = w.NewBufferAt(fmt.Sprintf("b%d", r), r, n)
	}
	lats := make([]sim.Time, nranks)
	if err := w.Run(func(p *env.Proc) {
		t0 := p.Now()
		c.Bcast(p, bufs[p.Rank], 0, n, 0)
		lats[p.Rank] = p.Now() - t0
	}); err != nil {
		t.Fatal(err)
	}
	return w, lats
}

// TestPhaseSpansSumToLatency pins the acceptance criterion: with tracing
// on, the per-phase attribution spans of one collective on one rank sum to
// that rank's reported latency within 1%. The segment-clock design makes
// the partition exact, so the test demands equality and reports the
// relative error on failure.
func TestPhaseSpansSumToLatency(t *testing.T) {
	reg := observe(t, true)
	w, lats := runBcast(t, 64<<10, nil)
	if w.Obs == nil || w.Obs.Tracer == nil {
		t.Fatal("observed world has no tracer")
	}
	tr := w.Obs.Tracer
	checked := 0
	for lane := 0; lane < tr.Lanes(); lane++ {
		for _, s := range tr.LaneSpans(lane) {
			if s.Phase != obs.PhaseCollective {
				continue
			}
			checked++
			covered := tr.CoveredTotal(lane, int64(s.Seq))
			dur := s.Dur()
			if dur <= 0 {
				t.Fatalf("lane %d: empty collective span %+v", lane, s)
			}
			if diff := covered - dur; diff != 0 {
				t.Errorf("lane %d %s seq %d: phases sum to %d ps, collective %d ps (%.3f%% off)",
					lane, s.Op, s.Seq, covered, dur, 100*float64(diff)/float64(dur))
			}
			// The collective span must also match the latency the harness
			// measured around the call.
			if got, want := dur, int64(lats[lane]); got != want {
				t.Errorf("lane %d: collective span %d ps, measured latency %d ps", lane, got, want)
			}
		}
	}
	if checked != 64 {
		t.Fatalf("found %d collective spans, want one per rank (64)", checked)
	}
	// All five core phases should appear somewhere in a 64 KiB broadcast
	// over a three-level hierarchy.
	for _, ph := range []obs.Phase{obs.PhaseExpose, obs.PhaseFlagWait, obs.PhaseChunkCopy, obs.PhaseAck} {
		found := false
		for lane := 0; lane < tr.Lanes() && !found; lane++ {
			found = tr.PhaseTotal(lane, ph, -1) > 0
		}
		if !found {
			t.Errorf("phase %v never recorded", ph)
		}
	}
	_ = reg
}

// TestChromeTraceFromRealRun writes the registry's trace of a real
// broadcast and checks it parses as Chrome-trace JSON with events.
func TestChromeTraceFromRealRun(t *testing.T) {
	reg := observe(t, true)
	runBcast(t, 16<<10, nil)
	var buf bytes.Buffer
	if err := reg.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	var complete int
	for _, e := range doc.TraceEvents {
		if e.Ph == "X" {
			complete++
		}
	}
	if complete < 64 {
		t.Errorf("trace has %d complete events, want at least one per rank", complete)
	}
}

// TestCollectorAndRegistryAgree pins the dual pull-hook design: an
// experiment's trace.Collector installed on Comm.OnPull and the registry's
// per-distance accounting observe the same edges, so their Table II tallies
// must be identical for the same run.
func TestCollectorAndRegistryAgree(t *testing.T) {
	reg := observe(t, false)
	var col *trace.Collector
	w, _ := runBcast(t, 64<<10, func(w *env.World, c *core.Comm) {
		col = trace.New(w.Topo, w.Map)
		c.OnPull = col.Hook()
	})
	_ = w
	if col.Total() == 0 {
		t.Fatal("collector saw no messages")
	}
	snap := reg.Snapshot()
	for d := topo.SelfCore; d <= topo.CrossSocket; d++ {
		name := "msgs." + d.String()
		if got, want := snap.Value(name+".count"), float64(col.Count(d)); got != want {
			t.Errorf("%s.count: registry %v, collector %v", name, got, want)
		}
		if got, want := snap.Value(name+".bytes"), float64(col.Bytes(d)); got != want {
			t.Errorf("%s.bytes: registry %v, collector %v", name, got, want)
		}
	}
}

// TestSnapshotSingleCall pins the acceptance criterion that one Snapshot
// call exposes the previously scattered counters: registration-cache hit
// ratio, flow-solver call/fast-path/flow/round/fallback counts, and
// per-distance message counts.
func TestSnapshotSingleCall(t *testing.T) {
	reg := observe(t, false)
	runBcast(t, 64<<10, nil)
	snap := reg.Snapshot()
	for _, name := range []string{
		"regcache.hits", "regcache.misses", "regcache.hit_ratio",
		"mem.solver_fastpath", "mem.solver_fallbacks",
		"mem.solver_calls", "mem.solver_flows", "mem.solver_rounds",
		"mem.flows_started", "mem.bytes_moved",
		"engine.events_run",
	} {
		if _, ok := snap.Get(name); !ok {
			t.Errorf("metric %q missing from snapshot", name)
		}
	}
	if snap.Value("worlds") != 1 {
		t.Errorf("worlds = %v, want 1", snap.Value("worlds"))
	}
	if snap.Value("ops") < 1 {
		t.Errorf("ops = %v, want >= 1", snap.Value("ops"))
	}
	if snap.Value("mem.flows_started") <= 0 {
		t.Error("flows_started not gathered")
	}
	if snap.Value("regcache.hits")+snap.Value("regcache.misses") <= 0 {
		t.Error("regcache counters not gathered")
	}
	var total float64
	for d := topo.SelfCore; d <= topo.CrossSocket; d++ {
		total += snap.Value("msgs." + d.String() + ".count")
	}
	if total <= 0 {
		t.Error("per-distance message counts not gathered")
	}
}
