package main

import (
	"encoding/binary"
	"fmt"
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"xhc/internal/gxhc"
	"xhc/internal/mem"
	"xhc/internal/obs"
	"xhc/internal/sim"
)

// The gxhc-mix op kinds. Every round runs each once, in a seeded order.
const (
	opARBig   = iota // allreduce, 1 MiB of float64
	opARSmall        // allreduce, 64 B of float64
	opBcast          // bcast, 64 KiB
	opBarrier        // barrier
	opIbcast         // ibcastDepth x 256 B Ibcast, then Waitall
	nOps
)

var opNames = [nOps]string{"allreduce_1m", "allreduce_64b", "bcast_64k", "barrier", "ibcast"}

const (
	arBigBytes     = 1 << 20
	arSmallBytes   = 64
	bcastBytes     = 64 << 10
	ibcastBytes    = 256
	roundsPerBatch = 200
	// opsPerRound counts collectives: the Ibcast window is ibcastDepth.
	opsPerRound = nOps - 1 + ibcastDepth
)

// gxMix is one communicator with its buffer set, built once per run. Per
// rank it holds 1 MiB of allreduce source, 1 MiB of result, 64 KiB of
// broadcast buffer and 1 KiB of window buffers: about 4.2 MiB for 2 ranks,
// far inside the 300 MiB L3 of the reference host, so every rate here is
// an in-cache rate.
type gxMix struct {
	n    int
	seed uint64
	comm *gxhc.Comm

	src, dst [2][][]float64 // [big/small][rank]
	bc       [][]byte
	ib       [][][]byte // [rank][slot]
	reqs     [][]*gxhc.Request

	// Per-batch inputs: allreduce terms g[i]+h[r] (element 0 is stamped
	// per round), broadcast payloads, and the per-round order and roots.
	g       [2][]float64
	h       []float64
	sumH    float64
	payload []byte
	ibPay   [][]byte
	order   [][nOps]uint8
	root    []int

	round  int // global index of the batch's first round
	arrive atomic.Int64
	bad    atomic.Int64
	dur    [nOps][][]int64 // [op][rank][round in batch] ns
	lat    [nOps][]float64 // latest rank's time per op instance, µs
	sumLat float64         // summed per-round op latency, µs
	rounds int
	// batchRates holds each recorded batch's collectives per wall second.
	batchRates []float64
	hb         spinBarrier // harness rendezvous of the fully checked segment

	// One worker goroutine per rank runs the batches: start[r] carries
	// the batch's full-check setting, done counts finished ranks, and
	// exited waits for the workers in close. rng is the batch input
	// stream, reseeded per batch.
	start  []chan bool
	done   sync.WaitGroup
	exited sync.WaitGroup
	pcg    *rand.PCG
	rng    *rand.Rand
}

func newGxMix(n int, seed uint64) (*gxMix, error) {
	comm, err := gxhc.New(n, gxhc.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("gxhc.New: %w", err)
	}
	x := &gxMix{n: n, seed: seed, comm: comm, hb: spinBarrier{n: int32(n)}}
	for k, bytes := range []int{arBigBytes, arSmallBytes} {
		x.src[k], x.dst[k] = make([][]float64, n), make([][]float64, n)
		for r := 0; r < n; r++ {
			x.src[k][r] = make([]float64, bytes/8)
			x.dst[k][r] = make([]float64, bytes/8)
		}
		x.g[k] = make([]float64, bytes/8)
	}
	x.h = make([]float64, n)
	x.bc = make([][]byte, n)
	x.ib = make([][][]byte, n)
	x.reqs = make([][]*gxhc.Request, n)
	for r := 0; r < n; r++ {
		x.bc[r] = make([]byte, bcastBytes)
		x.ib[r] = make([][]byte, ibcastDepth)
		for s := range x.ib[r] {
			x.ib[r][s] = make([]byte, ibcastBytes)
		}
		x.reqs[r] = make([]*gxhc.Request, 0, ibcastDepth)
	}
	x.payload = make([]byte, bcastBytes)
	x.ibPay = make([][]byte, ibcastDepth)
	for s := range x.ibPay {
		x.ibPay[s] = make([]byte, ibcastBytes)
	}
	x.order = make([][nOps]uint8, roundsPerBatch)
	x.root = make([]int, roundsPerBatch)
	for op := range x.dur {
		x.dur[op] = make([][]int64, n)
		for r := range x.dur[op] {
			x.dur[op][r] = make([]int64, roundsPerBatch)
		}
	}
	x.pcg = rand.NewPCG(seed, 0)
	x.rng = rand.New(x.pcg)
	x.start = make([]chan bool, n)
	for r := range x.start {
		x.start[r] = make(chan bool)
		x.exited.Add(1)
		go func(r int) {
			defer x.exited.Done()
			for full := range x.start[r] {
				x.rank(r, full)
				x.done.Done()
			}
		}(r)
	}
	return x, nil
}

// close stops the rank workers, waits for them to exit and closes the
// communicator.
func (x *gxMix) close() {
	for _, c := range x.start {
		close(c)
	}
	x.exited.Wait()
	x.comm.Close()
}

const poison = 0xEE

// prepare generates the next batch's inputs and poisons every output, so a
// stale result cannot pass a check. Only the first round's roots hold the
// broadcast payloads.
func (x *gxMix) prepare() {
	x.pcg.Seed(x.seed, purposeData<<32^uint64(x.round))
	rng := x.rng
	for k := range x.g {
		for i := range x.g[k] {
			x.g[k][i] = float64(rng.IntN(256))
		}
	}
	x.sumH = 0
	for r := range x.h {
		x.h[r] = float64(rng.IntN(16))
		x.sumH += x.h[r]
	}
	for i := range x.payload {
		x.payload[i] = byte(rng.Uint32())
	}
	for _, p := range x.ibPay {
		for i := range p {
			p[i] = byte(rng.Uint32())
		}
	}
	for k := range x.order {
		for i := range x.order[k] {
			x.order[k][i] = uint8(i)
		}
		rng.Shuffle(nOps, func(i, j int) { x.order[k][i], x.order[k][j] = x.order[k][j], x.order[k][i] })
		x.root[k] = rng.IntN(x.n)
	}
	for r := 0; r < x.n; r++ {
		for k := range x.src {
			s := x.src[k][r]
			for i := range s {
				s[i] = x.g[k][i] + x.h[r]
			}
			fillF64(x.dst[k][r], -1)
		}
		if r == x.root[0] {
			copy(x.bc[r], x.payload)
			for s := range x.ib[r] {
				copy(x.ib[r][s], x.ibPay[s])
			}
		} else {
			fillBytes(x.bc[r], poison)
			for s := range x.ib[r] {
				fillBytes(x.ib[r][s], poison)
			}
		}
	}
}

func fillF64(s []float64, v float64) {
	for i := range s {
		s[i] = v
	}
}

func fillBytes(b []byte, v byte) {
	for i := range b {
		b[i] = v
	}
}

// stamp is the per-round value written into element 0 / bytes 0..7 of
// each op's input, so every op instance has an O(1) check of freshness.
func stamp(round int) uint64 { return uint64(round%97) + 1 }

// rank runs one batch on one participant. With full set, every op's whole
// output is checked and the ranks re-align on a harness rendezvous before
// the next op (the fully checked segment of the per-layer run);
// otherwise each op gets an O(1) freshness check outside its timed span.
func (x *gxMix) rank(r int, full bool) {
	for k := 0; k < roundsPerBatch; k++ {
		gk := x.round + k
		st := stamp(gk)
		root := x.root[k]
		for _, op := range x.order[k] {
			// Stamp the inputs (untimed).
			switch op {
			case opARBig, opARSmall:
				x.src[op][r][0] = float64(st) + x.h[r]
			case opBcast:
				if r == root {
					binary.LittleEndian.PutUint64(x.bc[r], st)
				}
			case opIbcast:
				if r == root {
					for s, b := range x.ib[r] {
						binary.LittleEndian.PutUint64(b, st*ibcastDepth+uint64(s))
					}
				}
			case opBarrier:
				x.arrive.Add(1)
			}
			t0 := time.Now()
			switch op {
			case opARBig, opARSmall:
				x.comm.AllreduceFloat64(r, x.dst[op][r], x.src[op][r])
			case opBcast:
				x.comm.Bcast(r, x.bc[r], root)
			case opBarrier:
				x.comm.Barrier(r)
			case opIbcast:
				rs := x.reqs[r][:0]
				for _, b := range x.ib[r] {
					rs = append(rs, x.comm.Ibcast(r, b, root))
				}
				x.reqs[r] = rs
				gxhc.Waitall(rs...)
			}
			x.dur[op][r][k] = int64(time.Since(t0))
			if !x.checkOp(r, op, gk, full) {
				x.bad.Add(1)
			}
			if full {
				x.hb.wait()
			}
		}
	}
}

// checkOp verifies rank r's output of op in round gk: the stamped element
// or bytes always, the whole output when full is set.
func (x *gxMix) checkOp(r int, op uint8, gk int, full bool) bool {
	st := stamp(gk)
	n := float64(x.n)
	switch op {
	case opARBig, opARSmall:
		d := x.dst[op][r]
		if d[0] != n*float64(st)+x.sumH {
			return false
		}
		if full || op == opARSmall {
			for i := 1; i < len(d); i++ {
				if d[i] != n*x.g[op][i]+x.sumH {
					return false
				}
			}
		}
	case opBcast:
		if binary.LittleEndian.Uint64(x.bc[r]) != st {
			return false
		}
		if full && string(x.bc[r][8:]) != string(x.payload[8:]) {
			return false
		}
	case opIbcast:
		for s, b := range x.ib[r] {
			if binary.LittleEndian.Uint64(b) != st*ibcastDepth+uint64(s) {
				return false
			}
			if full && string(b[8:]) != string(x.ibPay[s][8:]) {
				return false
			}
		}
	case opBarrier:
		return x.arrive.Load() >= int64(x.n)*int64(gk+1)
	}
	return true
}

// checkBatch verifies every rank's whole outputs after a batch: the last
// round's stamps and the batch payloads everywhere.
func (x *gxMix) checkBatch() int64 {
	var bad int64
	last := x.round + roundsPerBatch - 1
	for r := 0; r < x.n; r++ {
		for _, op := range []uint8{opARBig, opARSmall, opBcast, opIbcast} {
			if !x.checkOp(r, op, last, true) {
				bad++
			}
		}
	}
	return bad
}

// batch runs roundsPerBatch rounds on every rank and checks their outputs.
// Latencies and the batch rate are recorded unless record is false
// (warmup).
func (x *gxMix) batch(full, record bool) tally {
	x.prepare()
	x.bad.Store(0)
	x.done.Add(x.n)
	t0 := time.Now()
	for _, c := range x.start {
		c <- full
	}
	x.done.Wait()
	wall := time.Since(t0)
	t := tally{attempted: roundsPerBatch * opsPerRound, failed: x.bad.Load() + x.checkBatch()}
	if record {
		for k := 0; k < roundsPerBatch; k++ {
			var sum float64
			for op := range x.dur {
				var m int64
				for r := range x.dur[op] {
					m = max(m, x.dur[op][r][k])
				}
				us := float64(m) / 1e3
				x.lat[op] = append(x.lat[op], us)
				sum += us
			}
			x.sumLat += sum
		}
		x.rounds += roundsPerBatch
		x.batchRates = append(x.batchRates, roundsPerBatch*opsPerRound/wall.Seconds())
	}
	x.round += roundsPerBatch
	return t
}

// resetStats drops recorded latencies (between the phases of a run).
func (x *gxMix) resetStats() {
	for op := range x.lat {
		x.lat[op] = x.lat[op][:0]
	}
	x.sumLat, x.rounds = 0, 0
	x.batchRates = x.batchRates[:0]
}

// timed runs whole batches, at least one, until budget seconds have
// passed.
func (x *gxMix) timed(budget float64, full bool, total *tally) {
	deadline := time.Now().Add(time.Duration(budget * float64(time.Second)))
	for first := true; first || time.Now().Before(deadline); first = false {
		total.add(x.batch(full, true))
	}
}

// opLatency is the latency xhc_op_us averages for op: the mean for the 1
// MiB allreduce, whose per-op distribution is bimodal, the p50 otherwise.
func (x *gxMix) opLatency(op int) float64 {
	if op == opARBig {
		return mean(x.lat[op])
	}
	return median(x.lat[op])
}

func (x *gxMix) xhcOp() float64 {
	var ls []float64
	for op := 0; op < nOps; op++ {
		ls = append(ls, x.opLatency(op))
	}
	return geomean(ls)
}

// runGx runs the real-backend workload: nproc ranks on GOMAXPROCS = nproc,
// one communicator and buffer set per run, closed-loop rounds of the op
// mix. Set-up (communicator, buffers, rank workers, one warmup batch) is
// repeated setupReps times; all but the last set-up are closed.
func runGx(cfg runConfig) (map[string]metric, tally, error) {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	var total tally
	var setups []float64
	var x *gxMix
	for rep := 0; rep < setupReps; rep++ {
		if x != nil {
			x.close()
		}
		t0 := time.Now()
		var err error
		if x, err = newGxMix(n, cfg.seed); err != nil {
			return nil, total, err
		}
		total.add(x.batch(false, false)) // warmup
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer x.close()

	if !cfg.trace {
		x.timed(cfg.seconds, false, &total)
		return map[string]metric{
			"setup_s":   {median(setups), "s"},
			"ops_per_s": {median(x.batchRates), "1/s"},
			"xhc_op_us": {x.xhcOp(), "us"},
		}, total, nil
	}

	ms := zeroLayerMetrics()
	// Profiled, untraced: attribution and latency tails.
	prof, err := startProfile()
	if err != nil {
		return nil, total, err
	}
	x.timed(cfg.seconds*0.35, false, &total)
	frac, err := prof.stop()
	if err != nil {
		return nil, total, err
	}
	for k, v := range frac {
		ms[k] = metric{v, "ratio"}
	}
	for op := 0; op < nOps; op++ {
		ms["gxhc."+opNames[op]+".p50_us"] = metric{median(x.lat[op]), "us"}
		ms["gxhc."+opNames[op]+".p99_us"] = metric{quantile(x.lat[op], 0.99), "us"}
	}
	arMean, arP50, bcP50 := mean(x.lat[opARBig]), median(x.lat[opARBig]), median(x.lat[opBcast])
	ms["gxhc.allreduce_gbps"] = metric{arBigBytes / arMean / 1e3, "GB/s"}

	// Plain (neither profiled nor traced): allocations, GC cycles and the
	// untraced side of the tracing overhead. The harness itself allocates
	// nothing per batch once the latency slices have grown.
	var m0, m1 runtime.MemStats
	x.resetStats()
	runtime.ReadMemStats(&m0)
	x.timed(cfg.seconds*0.1, false, &total)
	runtime.ReadMemStats(&m1)
	ops := float64(x.rounds * opsPerRound)
	ms["gxhc.allocs_per_op"] = metric{float64(m1.Mallocs-m0.Mallocs) / ops, "count"}
	ms["gxhc.gc_cycles"] = metric{float64(m1.NumGC-m0.NumGC) * 1000 / ops, "per_1k_ops"}
	plainPerRound := x.sumLat / float64(x.rounds)

	// Null model and roofline, in the same process at the same sizes.
	naiveUS, naiveBad := naiveAllreduceUS(x)
	total.add(tally{attempted: naiveIters, failed: naiveBad})
	roof := measureRoofline(n)
	ms["gxhc.vs_naive"] = metric{naiveUS / arP50, "ratio"}
	ms["gxhc.allreduce_roofline_frac"] = metric{roof.allreduceUS / arMean, "ratio"}
	ms["gxhc.bcast_roofline_frac"] = metric{roof.bcastUS / bcP50, "ratio"}
	ms["host.copy_gbps"] = metric{roof.copyGBps, "GB/s"}
	ms["host.add_gbps"] = metric{roof.addGBps, "GB/s"}

	// Traced: wall-clock critical-path blame and tracing overhead, then a
	// fully checked segment (every op's whole output).
	reg := obs.NewRegistry(true)
	wo := reg.NewWorld("gxhc", n, obs.WallTicksPerUS, obs.WallClock())
	wo.Rec.Backend = "gxhc"
	x.comm.AttachRecorder(wo.Rec)
	x.resetStats()
	x.timed(cfg.seconds*0.35, false, &total)
	tracedPerRound := x.sumLat / float64(x.rounds)
	x.timed(cfg.seconds*0.1, true, &total)
	wo.Finish(mem.Stats{}, sim.EngineStats{})
	addCrit(ms, reg.Snapshot())
	ms["obs.overhead_frac"] = metric{tracedPerRound/plainPerRound - 1, "ratio"}
	return ms, total, nil
}
