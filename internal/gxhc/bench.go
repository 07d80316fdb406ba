package gxhc

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"xhc/internal/stats"
)

// BenchResult is one row of a wall-clock OSU-style report: real elapsed
// time of the goroutine-backed collectives, the counterpart of osu.Result's
// simulated latencies.
type BenchResult struct {
	Size   int
	AvgLat float64 // microseconds, mean over ranks and iterations
	MinLat float64
	MaxLat float64
}

// BenchSpec configures one wall-clock microbenchmark sweep on a gxhc
// communicator, following the OSU methodology the sim-side osu package
// implements: warmup iterations, measured iterations reporting mean/min/max
// per-rank latency, and the "_mb" buffer-dirtying variant.
type BenchSpec struct {
	Ranks int
	Cfg   Config
	// Coll is one of bcast | allreduce | barrier | reduce | allgather |
	// scatter, or one of the non-blocking overlap cells: ibcast-overlap
	// (overlapDepth broadcasts in flight per rank, fusion disabled) and
	// ibcast-fused (the same window with same-shape fusion covering the
	// payload).
	Coll   string
	Warmup int
	Iters  int
	// Dirty rewrites the source buffers before every iteration (outside the
	// timed region), the paper's osu _mb variant.
	Dirty bool
	Root  int
	// Observe, when non-nil, is called with each freshly built communicator
	// before the participant goroutines start (e.g. to attach a flight
	// recorder).
	Observe func(*Comm)
}

func (s BenchSpec) withDefaults() BenchSpec {
	if s.Ranks == 0 {
		s.Ranks = runtime.GOMAXPROCS(0)
	}
	if s.Cfg.GroupSize == 0 && s.Cfg.ChunkBytes == 0 {
		s.Cfg = DefaultConfig()
	}
	if s.Warmup == 0 {
		s.Warmup = 10
	}
	if s.Iters == 0 {
		s.Iters = 100
	}
	return s
}

// normSizes maps a requested byte sweep to the sizes the collective
// actually measures: the float64 reductions round down to whole elements
// (duplicates dropped, first occurrence wins), barrier collapses to a
// single zero-byte row.
func (s BenchSpec) normSizes(sizes []int) []int {
	if s.Coll == "barrier" {
		return []int{0}
	}
	if s.Coll != "allreduce" && s.Coll != "reduce" {
		return sizes
	}
	out := make([]int, 0, len(sizes))
	seen := make(map[int]bool, len(sizes))
	for _, n := range sizes {
		n -= n % 8
		if n < 0 || seen[n] {
			continue
		}
		seen[n] = true
		out = append(out, n)
	}
	return out
}

// overlapDepth is how many non-blocking broadcasts the overlap cells keep
// in flight per rank: one "operation" issues the whole window and waits it
// out, so the measured latency amortizes the traversal over the window.
const overlapDepth = 4

// benchWorld is the per-measurement buffer set: every slice a rank touches,
// preallocated so the measured loop performs no harness allocation.
type benchWorld struct {
	spec BenchSpec
	comm *Comm
	size int

	bufs  [][]byte    // bcast
	src   [][]float64 // allreduce / reduce
	dst   [][]float64
	agIn  [][]byte // allgather
	agOut [][]byte
	scIn  []byte // scatter (root only)
	scOut [][]byte

	// The overlap cells: one payload buffer per in-flight slot, plus a
	// preallocated request scratch reused via [:0] so the measured window
	// stays allocation-free.
	obufs [][][]byte // [rank][slot]
	reqs  [][]*Request
}

func (s BenchSpec) build(size int) (*benchWorld, error) {
	// The overlap cells pin their fusion setting at construction time:
	// ibcast-overlap forces fusion off so every request is its own
	// hierarchy traversal; ibcast-fused makes the threshold cover the
	// payload so the whole window fuses into one.
	switch s.Coll {
	case "ibcast-overlap":
		s.Cfg.FuseBytes = -1
	case "ibcast-fused":
		if size > 0 {
			s.Cfg.FuseBytes = size
		}
	}
	comm, err := New(s.Ranks, s.Cfg)
	if err != nil {
		return nil, err
	}
	if s.Observe != nil {
		s.Observe(comm)
	}
	w := &benchWorld{spec: s, comm: comm, size: size}
	n := s.Ranks
	switch s.Coll {
	case "bcast":
		w.bufs = make([][]byte, n)
		for r := range w.bufs {
			w.bufs[r] = make([]byte, size)
		}
	case "allreduce", "reduce":
		w.src = make([][]float64, n)
		w.dst = make([][]float64, n)
		for r := range w.src {
			w.src[r] = make([]float64, size/8)
			w.dst[r] = make([]float64, size/8)
		}
	case "barrier":
	case "allgather":
		w.agIn = make([][]byte, n)
		w.agOut = make([][]byte, n)
		for r := range w.agIn {
			w.agIn[r] = make([]byte, size)
			w.agOut[r] = make([]byte, size*n)
		}
	case "scatter":
		w.scIn = make([]byte, size*n)
		w.scOut = make([][]byte, n)
		for r := range w.scOut {
			w.scOut[r] = make([]byte, size)
		}
	case "ibcast-overlap", "ibcast-fused":
		w.obufs = make([][][]byte, n)
		w.reqs = make([][]*Request, n)
		for r := range w.obufs {
			w.obufs[r] = make([][]byte, overlapDepth)
			for slot := range w.obufs[r] {
				w.obufs[r][slot] = make([]byte, size)
			}
			w.reqs[r] = make([]*Request, 0, overlapDepth)
		}
	default:
		return nil, fmt.Errorf("gxhc bench: unknown collective %q", s.Coll)
	}
	return w, nil
}

// dirty rewrites rank's source data for iteration it (outside the timed
// region), so cache-resident repeats do not flatter the implementation.
func (w *benchWorld) dirty(rank, it int) {
	if !w.spec.Dirty {
		return
	}
	switch w.spec.Coll {
	case "bcast":
		if rank == w.spec.Root {
			b := w.bufs[rank]
			for i := range b {
				b[i] = byte(i + it*31)
			}
		}
	case "allreduce", "reduce":
		s := w.src[rank]
		for i := range s {
			s[i] = float64(rank + i + it)
		}
	case "allgather":
		b := w.agIn[rank]
		for i := range b {
			b[i] = byte(rank ^ i ^ it*13)
		}
	case "scatter":
		if rank == w.spec.Root {
			for i := range w.scIn {
				w.scIn[i] = byte(i + it*7)
			}
		}
	case "ibcast-overlap", "ibcast-fused":
		if rank == w.spec.Root {
			for slot, b := range w.obufs[rank] {
				for i := range b {
					b[i] = byte(i + it*31 + slot*101)
				}
			}
		}
	}
}

// op runs one collective operation for rank.
func (w *benchWorld) op(rank int) {
	switch w.spec.Coll {
	case "bcast":
		w.comm.Bcast(rank, w.bufs[rank], w.spec.Root)
	case "allreduce":
		w.comm.AllreduceFloat64(rank, w.dst[rank], w.src[rank])
	case "reduce":
		w.comm.ReduceFloat64(rank, w.dst[rank], w.src[rank], w.spec.Root)
	case "barrier":
		w.comm.Barrier(rank)
	case "allgather":
		w.comm.Allgather(rank, w.agIn[rank], w.agOut[rank])
	case "scatter":
		var in []byte
		if rank == w.spec.Root {
			in = w.scIn
		}
		w.comm.Scatter(rank, in, w.scOut[rank], w.spec.Root)
	case "ibcast-overlap", "ibcast-fused":
		rs := w.reqs[rank][:0]
		for slot := 0; slot < overlapDepth; slot++ {
			rs = append(rs, w.comm.Ibcast(rank, w.obufs[rank][slot], w.spec.Root))
		}
		Waitall(rs...)
	}
}

// Run measures wall-clock latency for each size: every iteration is
// barrier-synchronized, each rank times its own call, and the row
// aggregates all (rank, iteration) samples.
func (s BenchSpec) Run(sizes []int) ([]BenchResult, error) {
	s = s.withDefaults()
	var out []BenchResult
	for _, size := range s.normSizes(sizes) {
		w, err := s.build(size)
		if err != nil {
			return nil, err
		}
		lats := make([][]float64, s.Ranks)
		for r := range lats {
			lats[r] = make([]float64, 0, s.Iters)
		}
		base := time.Now()
		var wg sync.WaitGroup
		for r := 0; r < s.Ranks; r++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				for it := 0; it < s.Warmup+s.Iters; it++ {
					w.dirty(rank, it)
					w.comm.Barrier(rank)
					t0 := time.Since(base)
					w.op(rank)
					d := time.Since(base) - t0
					if it >= s.Warmup {
						lats[rank] = append(lats[rank], float64(d.Nanoseconds())/1e3)
					}
				}
			}(r)
		}
		wg.Wait()
		var all []float64
		for r := range lats {
			all = append(all, lats[r]...)
		}
		if len(all) == 0 {
			return nil, fmt.Errorf("gxhc bench %s n=%d: no measured samples (warmup=%d iters=%d)",
				s.Coll, size, s.Warmup, s.Iters)
		}
		out = append(out, BenchResult{
			Size: size, AvgLat: stats.Mean(all), MinLat: stats.Min(all), MaxLat: stats.Max(all),
		})
	}
	return out, nil
}

// allocNoiseFloor returns the total heap-object count below which a
// measured window is judged allocation-free. With the window edges
// parking-free (allocWindow), what remains is the op path's own parks —
// the request worker's queue receive, Request.Wait, flag waits — drawing
// a fresh 96-byte sudog when the per-P cache they hit happens to be
// empty: a few per rank at most, so the transient is O(Ranks). A real
// op-path leak recurs every operation and so scales with Iters×Ranks
// (hundreds of objects per window), far above the floor.
func allocNoiseFloor(ranks int) uint64 {
	return 4 + 8*uint64(ranks)
}

// SteadyStateAllocs measures heap allocations per operation on the
// steady-state path: after a warmup that grows every lazily-sized pool
// (scratch accumulators, waiter lists, scheduler caches), the measured
// window of Iters operations per rank must not allocate at all. It returns
// allocations per (rank, operation). A window whose total object count is
// within the rank-scaled noise floor reads as zero, and the measurement
// retries a few times reporting the minimum — both guards against runtime
// cache refills being charged to the window, never against per-op
// allocation, which recurs far above the floor on every attempt.
func (s BenchSpec) SteadyStateAllocs(size int) (float64, error) {
	s = s.withDefaults()
	ns := s.normSizes([]int{size})
	if len(ns) == 0 {
		return 0, fmt.Errorf("gxhc bench: size %d not measurable for %s", size, s.Coll)
	}
	size = ns[0]
	best := -1.0
	for attempt := 0; attempt < 3; attempt++ {
		total, err := s.steadyStateAllocsOnce(size)
		if err != nil {
			return 0, err
		}
		if total <= allocNoiseFloor(s.Ranks) {
			return 0, nil
		}
		got := float64(total) / float64(s.Iters*s.Ranks)
		if best < 0 || got < best {
			best = got
		}
	}
	return best, nil
}

// steadyStateAllocsOnce runs one gated measurement window and returns the
// total number of heap objects allocated during it.
func (s BenchSpec) steadyStateAllocsOnce(size int) (uint64, error) {
	w, err := s.build(size)
	if err != nil {
		return 0, err
	}
	// The measured window must charge only the op path, so the anomaly
	// dump machinery is quiesced: the forced GC below can pause a rank
	// long enough to read as a straggler, and the resulting flight dump
	// is a deliberately heavyweight diagnostic, not an op-path allocation
	// (the straggler counter itself still advances).
	if w.comm.rec != nil {
		w.comm.rec.SetQuiesceDumps(true)
		defer w.comm.rec.SetQuiesceDumps(false)
	}
	return allocWindow(w.comm, s.Ranks, func(rank int) {
		for it := 0; it < s.Warmup; it++ {
			w.dirty(rank, it)
			w.op(rank)
		}
	}, func(rank int) {
		for it := 0; it < s.Iters; it++ {
			w.dirty(rank, s.Warmup+it)
			w.op(rank)
		}
	}), nil
}

// allocWindow runs warm then body on every rank of c, each followed by a
// communicator Barrier, and returns the number of heap objects allocated
// while the bodies ran. The window edges are atomics the harness
// goroutines yield-spin on, never a WaitGroup or channel: parking there
// would draw sudogs from the scheduler's caches and charge their refills
// to the window. GC is collected once up front and then disabled — a GC
// purges the sudog caches, and the op path's own parks right after one
// would allocate fresh ones; the warmup repopulates them instead.
func allocWindow(c *Comm, ranks int, warm, body func(rank int)) uint64 {
	prevGC := debug.SetGCPercent(-1)
	runtime.GC()
	defer debug.SetGCPercent(prevGC)
	// arrived counts edge crossings (ranks per edge: warm, measured,
	// exited); phase opens the edges (1: measure, 2: exit).
	var arrived, phase atomic.Int32
	for r := 0; r < ranks; r++ {
		go func(rank int) {
			warm(rank)
			c.Barrier(rank)
			arrived.Add(1)
			awaitAtLeast(&phase, 1)
			body(rank)
			c.Barrier(rank)
			arrived.Add(1)
			awaitAtLeast(&phase, 2)
			arrived.Add(1)
		}(r)
	}
	n := int32(ranks)
	var m0, m1 runtime.MemStats
	awaitAtLeast(&arrived, n)
	runtime.ReadMemStats(&m0)
	phase.Store(1)
	awaitAtLeast(&arrived, 2*n)
	runtime.ReadMemStats(&m1)
	phase.Store(2)
	awaitAtLeast(&arrived, 3*n)
	return m1.Mallocs - m0.Mallocs
}

// awaitAtLeast yields until v reaches want.
func awaitAtLeast(v *atomic.Int32, want int32) {
	for v.Load() < want {
		runtime.Gosched()
	}
}

// BenchCollectives lists the blocking collectives BenchSpec understands,
// in report order.
func BenchCollectives() []string {
	return []string{"bcast", "allreduce", "barrier", "reduce", "allgather", "scatter"}
}

// OverlapCollectives lists the non-blocking overlap cells: the same
// overlapDepth-deep Ibcast window measured with fusion off and on.
func OverlapCollectives() []string {
	return []string{"ibcast-overlap", "ibcast-fused"}
}
