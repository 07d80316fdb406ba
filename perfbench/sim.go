package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"runtime"
	"time"

	"xhc/internal/baselines"
	"xhc/internal/coll"
	"xhc/internal/core"
	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/obs"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

// ibcastDepth is the number of non-blocking broadcasts one window keeps in
// flight before Waitall, on both backends.
const ibcastDepth = 4

// setupReps is how many times a run repeats its set-up; setup_s is the
// median.
const setupReps = 7

// simCell is one simulated measurement: a fresh world of ranks on a
// platform, one component, one collective at one size, run osu-style with
// the _mb dirty variant (sources rewritten before every iteration).
type simCell struct {
	plat  string
	ranks int
	comp  string // coll registry name; the ibcast window always uses core.Comm
	op    string // allreduce | bcast | barrier | ibcast
	size  int
	root  int
	warm  int
	iters int
}

func (c simCell) key() string {
	return fmt.Sprintf("%s/%d/%s/%s/%d/root%d", c.plat, c.ranks, c.comp, c.op, c.size, c.root)
}

// xhc reports whether the cell measures the XHC protocol: its latency and
// host cost enter sim.xhc_lat_us and xhc_op_us. Baseline cells count
// toward ops_per_s only.
func (c simCell) xhc() bool { return c.comp == "xhc-tree" }

// opsPer counts the collectives one execution of n iterations completes.
func (c simCell) opsPer(n int) int64 {
	if c.op == "ibcast" {
		return int64(n * ibcastDepth)
	}
	return int64(n)
}

// simCells lists a workload's cells. The seed picks the broadcast roots;
// a root is part of the cell's identity, so a cell's simulated latencies
// and counts do not depend on the seed.
func simCells(workload string, seed uint64) []simCell {
	roots := rngFor(seed, purposeRoots, 0)
	var cells []simCell
	switch workload {
	case "repro-bulk":
		const arm, n = "ARM-N1", 160
		for _, comp := range []string{"xhc-tree", "xbrc"} {
			for _, size := range []int{64 << 10, 1 << 20} {
				cells = append(cells, simCell{plat: arm, ranks: n, comp: comp, op: "allreduce", size: size})
			}
		}
		cells = append(cells, simCell{plat: arm, ranks: n, comp: "xhc-tree", op: "bcast", size: 1 << 20, root: roots.IntN(n)})
		for i := range cells {
			cells[i].warm, cells[i].iters = 2, 3
		}
	case "repro-small":
		for _, pl := range []struct {
			name  string
			ranks int
		}{{"Epyc-2P", 64}, {"ARM-N1", 160}} {
			for _, comp := range []string{"xhc-tree", "sm"} {
				cells = append(cells,
					simCell{plat: pl.name, ranks: pl.ranks, comp: comp, op: "bcast", size: 4, root: roots.IntN(pl.ranks)},
					simCell{plat: pl.name, ranks: pl.ranks, comp: comp, op: "bcast", size: 1 << 10, root: roots.IntN(pl.ranks)},
					simCell{plat: pl.name, ranks: pl.ranks, comp: comp, op: "allreduce", size: 8},
					simCell{plat: pl.name, ranks: pl.ranks, comp: comp, op: "barrier"})
			}
			cells = append(cells, simCell{plat: pl.name, ranks: pl.ranks, comp: "xhc-tree", op: "ibcast", size: 256, root: roots.IntN(pl.ranks)})
		}
		for i := range cells {
			cells[i].warm, cells[i].iters = 2, 18
		}
	}
	return cells
}

func buildTopos() map[string]*topo.Topology {
	return map[string]*topo.Topology{"ARM-N1": topo.ArmN1(), "Epyc-2P": topo.Epyc2P()}
}

// cellRun is the outcome of one execution of a cell in a fresh world.
type cellRun struct {
	lat    []sim.Duration // per iteration and rank: [it*ranks+rank]
	meanUS float64        // mean latency over measured iterations and ranks
	mem    mem.Stats
	eng    sim.EngineStats
	// cpuNS is the process CPU time of building the world, communicator
	// and buffers and running it, minus the input fill and output checks.
	// CPU time leaves out what the hypervisor of a shared VM gives to
	// other guests, which the wall clock would count.
	cpuNS int64
	t     tally
}

// sameSim reports whether two runs of a cell produced identical simulated
// latencies and counters.
func (a *cellRun) sameSim(b *cellRun) bool {
	if a.mem != b.mem || a.eng != b.eng || len(a.lat) != len(b.lat) {
		return false
	}
	for i := range a.lat {
		if a.lat[i] != b.lat[i] {
			return false
		}
	}
	return true
}

// cellInputs holds one execution's generated inputs: per iteration, the
// broadcast payloads (ibcastDepth of them for a window), or the allreduce
// per-element and per-rank terms. Every rank r contributes
// g[i] + h[r] to element i, small integers in float64, so the sum is exact
// in any reduction order.
type cellInputs struct {
	payload [][][]byte // [iter][slot]
	g       [][]uint8  // [iter][elem]
	h       [][]uint8  // [iter][rank]
	sumH    []float64
}

func genInputs(c simCell, n int, seed uint64) *cellInputs {
	rng := rngFor(seed, purposeData, 0)
	in := &cellInputs{}
	switch c.op {
	case "bcast", "ibcast":
		slots := 1
		if c.op == "ibcast" {
			slots = ibcastDepth
		}
		in.payload = make([][][]byte, n)
		for it := range in.payload {
			in.payload[it] = make([][]byte, slots)
			for s := range in.payload[it] {
				b := make([]byte, c.size)
				for i := range b {
					b[i] = byte(rng.Uint32())
				}
				b[0] = byte(it*ibcastDepth + s + 1) // consecutive payloads always differ
				in.payload[it][s] = b
			}
		}
	case "allreduce":
		in.g = make([][]uint8, n)
		in.h = make([][]uint8, n)
		in.sumH = make([]float64, n)
		for it := 0; it < n; it++ {
			in.g[it] = make([]uint8, c.size/8)
			for i := range in.g[it] {
				in.g[it][i] = uint8(rng.Uint32())
			}
			in.g[it][0] = uint8(it + 1)
			in.h[it] = make([]uint8, c.ranks)
			for r := range in.h[it] {
				in.h[it][r] = uint8(rng.IntN(16))
				in.sumH[it] += float64(in.h[it][r])
			}
		}
	}
	return in
}

func putF64(b []byte, i int, v float64) { binary.LittleEndian.PutUint64(b[8*i:], math.Float64bits(v)) }
func getF64(b []byte, i int) float64 {
	return math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
}

// cellWorld is a cell's fresh world with its communicator and buffers.
type cellWorld struct {
	w     *env.World
	comp  coll.Component
	xc    *core.Comm // the ibcast window's communicator
	bar   baselines.Barrierer
	bufs  [][]*mem.Buffer // [rank][slot]: source / broadcast buffers
	rbufs []*mem.Buffer   // allreduce results
}

func buildCell(c simCell, top *topo.Topology) (*cellWorld, error) {
	m, err := top.Map(topo.MapCore, c.ranks)
	if err != nil {
		return nil, err
	}
	cw := &cellWorld{w: env.NewWorld(top, m)}
	if c.op == "ibcast" {
		cw.xc, err = core.New(cw.w, core.DefaultConfig())
	} else {
		cw.comp, err = coll.New(c.comp, cw.w)
	}
	if err != nil {
		return nil, err
	}
	if c.op == "barrier" {
		var ok bool
		if cw.bar, ok = cw.comp.(baselines.Barrierer); !ok {
			return nil, fmt.Errorf("%s has no barrier", c.comp)
		}
	}
	cw.bufs = make([][]*mem.Buffer, c.ranks)
	cw.rbufs = make([]*mem.Buffer, c.ranks)
	for r := range cw.bufs {
		cw.bufs[r] = make([]*mem.Buffer, c.slots())
		for s := range cw.bufs[r] {
			cw.bufs[r][s] = cw.w.NewBufferAt(fmt.Sprintf("pb.s%d.%d", r, s), r, c.size)
		}
		if c.op == "allreduce" {
			cw.rbufs[r] = cw.w.NewBufferAt(fmt.Sprintf("pb.r%d", r), r, c.size)
		}
	}
	return cw, nil
}

// slots is the number of buffers per rank one op uses.
func (c simCell) slots() int {
	if c.op == "ibcast" {
		return ibcastDepth
	}
	return 1
}

// runCell executes n iterations of c (the first c.warm are warmup) in a
// fresh world and checks every rank's output of every iteration.
func runCell(c simCell, top *topo.Topology, n int, dataSeed uint64) cellRun {
	in := genInputs(c, n, dataSeed)
	res := cellRun{lat: make([]sim.Duration, n*c.ranks)}
	res.t.attempted = c.opsPer(n)
	// Start every cell from a collected heap: the previous world's garbage
	// (hundreds of MiB on repro-bulk) is not charged to whichever cell the
	// seeded order puts next, and peak memory is one world's, not two.
	runtime.GC()

	cpu0 := cpuTimeNS()
	var excluded time.Duration // input fill and output checks, run inside rank bodies
	cw, err := buildCell(c, top)
	if err != nil {
		res.t.failed = res.t.attempted
		return res
	}
	bufs := cw.bufs
	bad := make([]bool, n)
	reqs := make([][]*core.Request, c.ranks)
	runErr := cw.w.Run(func(p *env.Proc) {
		r := p.Rank
		for it := 0; it < n; it++ {
			t := time.Now()
			fillSim(c, p, in, it, bufs[r])
			excluded += time.Since(t)
			p.HarnessBarrier()
			t0 := p.Now()
			switch c.op {
			case "allreduce":
				cw.comp.Allreduce(p, bufs[r][0], cw.rbufs[r], c.size, mpi.Float64, mpi.Sum)
			case "bcast":
				cw.comp.Bcast(p, bufs[r][0], 0, c.size, c.root)
			case "barrier":
				cw.bar.Barrier(p)
			case "ibcast":
				rs := reqs[r][:0]
				for _, b := range bufs[r] {
					rs = append(rs, cw.xc.Ibcast(p, b, 0, c.size, c.root))
				}
				reqs[r] = rs
				core.Waitall(p, rs...)
			}
			res.lat[it*c.ranks+r] = p.Now() - t0
			p.HarnessBarrier()
			t = time.Now()
			if !checkSim(c, in, it, r, bufs[r], cw.rbufs[r]) {
				bad[it] = true
			}
			excluded += time.Since(t)
		}
	})
	res.cpuNS = cpuTimeNS() - cpu0 - int64(excluded)
	res.mem, res.eng = cw.w.Sys.Stats, cw.w.Sys.Eng.Stats()
	if runErr != nil {
		res.t.failed = res.t.attempted
		return res
	}
	for it := range bad {
		if bad[it] {
			res.t.failed += c.opsPer(1)
		}
	}
	if n > c.warm {
		var sum float64
		for _, d := range res.lat[c.warm*c.ranks:] {
			sum += sim.Micros(d)
		}
		res.meanUS = sum / float64((n-c.warm)*c.ranks)
	}
	return res
}

// fillSim writes rank r's inputs for iteration it and marks the rewritten
// buffers dirty (the _mb variant). A barrier's correctness is its
// completion: the harness barriers around it and the engine's deadlock
// detection fail it otherwise.
func fillSim(c simCell, p *env.Proc, in *cellInputs, it int, bufs []*mem.Buffer) {
	switch c.op {
	case "allreduce":
		d, g, h := bufs[0].Data, in.g[it], float64(in.h[it][p.Rank])
		for i := range g {
			putF64(d, i, float64(g[i])+h)
		}
		p.Dirty(bufs[0])
	case "bcast", "ibcast":
		if p.Rank == c.root {
			for s, b := range bufs {
				copy(b.Data, in.payload[it][s])
				p.Dirty(b)
			}
		}
	}
}

func checkSim(c simCell, in *cellInputs, it, r int, bufs []*mem.Buffer, rbuf *mem.Buffer) bool {
	switch c.op {
	case "allreduce":
		g, n, sumH := in.g[it], float64(c.ranks), in.sumH[it]
		for i := range g {
			if getF64(rbuf.Data, i) != n*float64(g[i])+sumH {
				return false
			}
		}
	case "bcast", "ibcast":
		for s, b := range bufs {
			if !bytes.Equal(b.Data, in.payload[it][s]) {
				return false
			}
		}
	}
	return true
}

// simRound is one pass over every cell of a workload, in seeded order.
type simRound struct {
	runs  []cellRun // indexed like the cell table
	cpuNS int64
	ops   int64
}

func runRound(cells []simCell, tops map[string]*topo.Topology, seed uint64, round int, n func(simCell) int) simRound {
	rd := simRound{runs: make([]cellRun, len(cells))}
	order := rngFor(seed, purposeOrder, uint64(round)).Perm(len(cells))
	for _, i := range order {
		c := cells[i]
		dataSeed := seed ^ uint64(round)<<20 ^ uint64(i)<<40
		r := runCell(c, tops[c.plat], n(c), dataSeed)
		rd.runs[i] = r
		rd.cpuNS += r.cpuNS
		rd.ops += c.opsPer(n(c))
	}
	return rd
}

func fullIters(c simCell) int { return c.warm + c.iters }

// runSim runs a simulator workload on one P: the engine runs exactly one
// simulated process or event handler at a time, so further Ps only turn
// every process hand-off into a cross-thread wakeup whose cost depends on
// the OS scheduler rather than on the program.
//
// Set-up builds the topologies and every cell's world, communicator and
// buffers; it is repeated setupReps times. The timed region then runs
// whole rounds, each cell in a fresh world, until the budget is spent.
// Set-up and rounds are charged in process CPU time (see cellRun.cpuNS).
// The first round is the reference: every later round must reproduce
// each cell's simulated latencies and counters exactly, even though its
// data and cell order differ.
func runSim(cfg runConfig) (map[string]metric, tally, error) {
	runtime.GOMAXPROCS(1)
	cells := simCells(cfg.workload, cfg.seed)
	var total tally
	var setups []float64
	var tops map[string]*topo.Topology
	for rep := 0; rep < setupReps; rep++ {
		t0 := cpuTimeNS()
		tops = buildTopos()
		d := cpuTimeNS() - t0
		for _, c := range cells {
			runtime.GC() // as in runCell: no cell pays for the previous one's garbage
			t0 := cpuTimeNS()
			if _, err := buildCell(c, tops[c.plat]); err != nil {
				return nil, total, fmt.Errorf("set up %s: %w", c.key(), err)
			}
			d += cpuTimeNS() - t0
		}
		setups = append(setups, float64(d)/1e9)
	}

	var ref *simRound
	var rounds []simRound // of the current phase
	round := 0
	// timed runs whole rounds until budget seconds of wall clock are spent
	// (at least one) and returns their summed CPU time.
	timed := func(budget float64) (cpuNS int64) {
		rounds = rounds[:0]
		deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
		for len(rounds) == 0 || time.Now().Before(deadline) {
			rd := runRound(cells, tops, cfg.seed, round, fullIters)
			round++
			for i := range rd.runs {
				total.add(rd.runs[i].t)
				if ref != nil && rd.runs[i].t.failed == 0 && !ref.runs[i].sameSim(&rd.runs[i]) {
					total.failed += cells[i].opsPer(fullIters(cells[i]))
				}
			}
			if ref == nil {
				ref = &rd
			} else {
				for i := range rd.runs {
					rd.runs[i].lat = nil // only the reference keeps its latencies
				}
			}
			rounds = append(rounds, rd)
			cpuNS += rd.cpuNS
		}
		return cpuNS
	}

	if !cfg.trace {
		timed(cfg.seconds)
		var rates, opUS []float64
		for _, rd := range rounds {
			rates = append(rates, float64(rd.ops)/(float64(rd.cpuNS)/1e9))
		}
		for i, c := range cells {
			if !c.xhc() {
				continue
			}
			var perOp []float64
			for _, rd := range rounds {
				perOp = append(perOp, float64(rd.runs[i].cpuNS)/1e3/float64(c.opsPer(fullIters(c))))
			}
			opUS = append(opUS, median(perOp))
		}
		return map[string]metric{
			"setup_s":   {median(setups), "s"},
			"ops_per_s": {median(rates), "1/s"},
			"xhc_op_us": {geomean(opUS), "us"},
		}, total, nil
	}

	// Per-layer: a CPU-profiled untraced half, then a traced half whose
	// first round feeds the registry snapshot.
	prof, err := startProfile()
	if err != nil {
		return nil, total, err
	}
	plainNS := timed(cfg.seconds / 2)
	plainRounds := len(rounds)
	frac, err := prof.stop()
	if err != nil {
		return nil, total, err
	}
	var events int64
	for _, r := range ref.runs {
		events += r.eng.EventsRun
	}

	reg := obs.NewRegistry(true)
	env.ObserveWorlds(reg)
	defer func() { env.Observer = nil }()
	var snap obs.Snapshot
	tracedNS := timed(0) // one round: the snapshot holds exactly one round's worlds
	snap = reg.Snapshot()
	tracedRounds := 1
	if left := cfg.seconds/2 - float64(tracedNS)/1e9; left > 0 {
		tracedNS += timed(left)
		tracedRounds += len(rounds)
	}

	ms := zeroLayerMetrics()
	for k, v := range frac {
		ms[k] = metric{v, "ratio"}
	}
	addSimCounters(ms, cells, ref, snap)
	ms["sim.host_ns_per_event"] = metric{float64(plainNS) / float64(events*int64(plainRounds)), "ns"}
	ms["obs.overhead_frac"] = metric{(float64(tracedNS)/float64(tracedRounds))/(float64(plainNS)/float64(plainRounds)) - 1, "ratio"}
	return ms, total, nil
}

// addSimCounters fills the simulator's per-layer metrics from the reference
// round (exact, so they repeat bit for bit) and the registry snapshot of
// one traced round.
func addSimCounters(ms map[string]metric, cells []simCell, ref *simRound, snap obs.Snapshot) {
	var st mem.Stats
	var ev, heap int64
	var lats []float64
	for i, r := range ref.runs {
		if cells[i].xhc() {
			lats = append(lats, r.meanUS)
		}
		ev += r.eng.EventsRun
		heap = max(heap, int64(r.eng.MaxHeapLen))
		st.FlowsStarted += r.mem.FlowsStarted
		st.BytesMoved += r.mem.BytesMoved
		st.MaxConcurrent = max(st.MaxConcurrent, r.mem.MaxConcurrent)
		st.LineFetches += r.mem.LineFetches
		st.LineHits += r.mem.LineHits
		st.QueueWaitPS += r.mem.QueueWaitPS
		st.MaxLineWaiters = max(st.MaxLineWaiters, r.mem.MaxLineWaiters)
		st.SolverFastPath += r.mem.SolverFastPath
		st.SolverFallbacks += r.mem.SolverFallbacks
	}
	set := func(name string, v float64, unit string) { ms[name] = metric{v, unit} }
	set("sim.xhc_lat_us", geomean(lats), "sim_us")
	set("sim.events_run", float64(ev), "count")
	set("sim.max_heap_len", float64(heap), "count")
	set("mem.flows_started", float64(st.FlowsStarted), "count")
	set("mem.max_concurrent_flows", float64(st.MaxConcurrent), "count")
	set("mem.solver_fastpath", float64(st.SolverFastPath), "count")
	set("mem.solver_fallbacks", float64(st.SolverFallbacks), "count")
	set("mem.line_fetches", float64(st.LineFetches), "count")
	if acc := st.LineFetches + st.LineHits; acc > 0 {
		set("mem.line_hit_ratio", float64(st.LineHits)/float64(acc), "ratio")
	}
	set("mem.max_line_waiters", float64(st.MaxLineWaiters), "count")
	set("mem.line_queue_wait_us", float64(st.QueueWaitPS)/float64(sim.Microsecond), "sim_us")
	set("mem.bytes_moved", float64(st.BytesMoved), "B")
	set("regcache.hit_ratio", snap.Value("regcache.hit_ratio"), "ratio")
	addCrit(ms, snap)
}

// addCrit copies the critical-path blame of the snapshot's edges and the
// share of the path it explains. Blame is in the world's clock: simulated
// µs on the simulator, wall µs on gxhc.
func addCrit(ms map[string]metric, snap obs.Snapshot) {
	var sum float64
	for e := obs.EdgeKind(0); e < obs.NEdges; e++ {
		sum += snap.Value("crit." + e.String() + ".blame_us")
	}
	for _, e := range critEdges {
		ms["crit."+e+".blame_us"] = metric{snap.Value("crit." + e + ".blame_us"), "us"}
	}
	if path := snap.Value("crit.path_us"); path > 0 {
		ms["crit.coverage"] = metric{sum / path, "ratio"}
	}
}

var critEdges = []string{"chunk_copy", "reduce", "flag_wait", "ack"}
