package mem

import (
	"fmt"

	"xhc/internal/sim"
	"xhc/internal/topo"
)

// System is the memory-system model of one node: bandwidth resources,
// buffers, cache lines and kernel serialization points, advanced by a
// sim.Engine. All methods must be called from simulated processes (or the
// engine goroutine); the engine's lockstep execution makes that safe.
type System struct {
	Eng    *sim.Engine
	Topo   *topo.Topology
	Params Params

	memRes   []*resource // per NUMA node memory controller
	numaPort []*resource // per NUMA node fabric port
	xsLink   *resource   // inter-socket link (nil on 1-socket nodes)
	llcPort  []*resource // per shared-LLC group (Epyc)
	slcPort  []*resource // per socket SLC (ARM)
	coreRes  []*resource // per core load/store streaming limit

	// active is the in-flight flow set, kept ordered by flow id (ids are
	// assigned monotonically, so arrival order IS id order and no per-event
	// sort is needed). flowPool recycles completed flow objects; solver is
	// the max-min rate solver with its pooled scratch (shared, as a type,
	// with the inter-node Fabric — see solver.go); cmplVersion and
	// cmplFired implement the single per-System completion event
	// (see flows.go).
	active      []*flow
	flowPool    []*flow
	solver      rateSolver
	cmplVersion uint64
	cmplFired   func(uint64)
	flowSeq     int
	bufSeq      int

	// connected, walkGen, stack and comp serve the component-local
	// re-solve (flows.go): whether the active set is known to be one
	// component, the walk's generation stamp, and its pooled resource
	// stack and component list.
	connected bool
	walkGen   uint64
	stack     []*resource
	comp      []*flow

	// onReschedule, when set, runs after every reschedule. The solver
	// oracle tests use it to compare each re-solve against a from-scratch
	// solve.
	onReschedule func()

	// CMALock and KNEMLock model the kernel-internal locks of the CMA and
	// KNEM single-copy mechanisms; concurrent callers serialize on them.
	CMALock  *Queue
	KNEMLock *Queue

	// OnFlow, when set, observes every completed bulk transfer: the
	// initiating core, the byte count, and the flow's start/end virtual
	// times (including fixed read latency and copy overhead). It is a
	// nil-checked function pointer so the disabled path costs one branch
	// and the hot loop stays allocation-free.
	OnFlow func(core, bytes int, start, end sim.Time)

	// OnFlagWrite, when set, observes every store to a single-writer
	// control flag (package shm routes Flag.Set through it): the flag
	// name, the coherence line it lives on, the writing core, and the
	// stored value. The protocol checker's write-tracker hangs off this
	// hook to detect any line written by more than one core — the
	// discipline the paper's Section III-E design rests on. Nil (the
	// default) costs one branch per flag store.
	OnFlagWrite func(name string, line *Line, core int, v uint64)

	Stats Stats
}

// Stats aggregates counters useful for tests and for the Table II /
// registration-cache analyses.
type Stats struct {
	FlowsStarted  int64
	BytesMoved    int64
	MaxConcurrent int
	LineFetches   int64
	LineHits      int64
	LineRMWs      int64
	QueueWaitPS   int64 // accumulated line/RMW queue waiting

	// LineWaits counts blocked-reader registrations on coherence lines;
	// MaxLineWaiters is the deepest fan-in queue observed on any single
	// line (the Fig. 10 congestion signal).
	LineWaits      int64
	MaxLineWaiters int

	// LinesAllocated counts NewLine calls. The protocol checker compares
	// it across operations to assert that control structures are
	// per-communicator, not per-operation (bounded control memory).
	LinesAllocated int64

	// SolverCalls counts rate solves, one per re-solved component.
	// SolverFastPath counts those resolved by the lone-flow fast path: a
	// flow alone in its component. SolverFlows sums the flows the other
	// solves handed to the freeze loop, and SolverRounds counts that
	// loop's rounds. SolverFallbacks counts times the numerical-corner
	// fallback froze flows at the current bound — nonzero values there
	// signal calibration drift worth investigating.
	SolverCalls     int64
	SolverFastPath  int64
	SolverFlows     int64
	SolverRounds    int64
	SolverFallbacks int64
}

// NewSystem builds the memory model for a topology with the given params.
func NewSystem(eng *sim.Engine, t *topo.Topology, p Params) *System {
	s := &System{
		Eng:    eng,
		Topo:   t,
		Params: p,
	}
	s.cmplFired = s.completionFired
	for i := 0; i < t.NNUMA; i++ {
		s.memRes = append(s.memRes, &resource{name: fmt.Sprintf("mem%d", i), capacity: p.MemBW})
		s.numaPort = append(s.numaPort, &resource{name: fmt.Sprintf("port%d", i), capacity: p.NUMAPortBW})
	}
	if t.NSockets > 1 {
		s.xsLink = &resource{name: "xs", capacity: p.XSocketBW}
	}
	for i := 0; i < t.NLLC; i++ {
		s.llcPort = append(s.llcPort, &resource{name: fmt.Sprintf("llc%d", i), capacity: p.LLCBW})
	}
	if !t.HasSharedLLC() {
		for i := 0; i < t.NSockets; i++ {
			s.slcPort = append(s.slcPort, &resource{name: fmt.Sprintf("slc%d", i), capacity: p.SLCBW})
		}
	}
	for i := 0; i < t.NCores; i++ {
		s.coreRes = append(s.coreRes, &resource{name: fmt.Sprintf("core%d", i), capacity: p.CoreCopyBW})
	}
	s.CMALock = NewQueue()
	s.KNEMLock = NewQueue()
	return s
}

// Default builds a System with DefaultParams on a fresh engine.
func Default(t *topo.Topology) *System {
	return NewSystem(sim.NewEngine(), t, DefaultParams(t))
}

// readPath resolves the fixed latency, shared resources, and the
// single-stream rate cap that a read of src by core traverses right now,
// given current cache residency. The cap models a core's limited number of
// outstanding misses: remote data streams slower even on an idle machine.
// Resources are appended to buf so callers can pass stack scratch and keep
// the copy hot path allocation-free.
func (s *System) readPath(core int, src *Buffer, buf []*resource) (sim.Duration, []*resource, float64) {
	p := &s.Params
	switch s.lookupSource(src, core) {
	case srcL2:
		return p.L2HitLat, append(buf, s.coreRes[core]), 0
	case srcLLC:
		return p.LLCHitLat, append(buf, s.llcPort[s.Topo.LLC(core)], s.coreRes[core]), 0
	case srcSLC:
		return p.SLCHitLat, append(buf, s.slcPort[s.Topo.Socket(core)], s.coreRes[core]), p.StreamBW[topo.IntraNUMA]
	}
	home := src.HomeNUMA
	rn := s.Topo.NUMA(core)
	lat := p.MemLat
	res := append(buf, s.memRes[home], s.coreRes[core])
	cap := p.StreamBW[topo.IntraNUMA]
	if home != rn {
		lat += p.NUMAHopLat
		cap = p.StreamBW[topo.CrossNUMA]
		res = append(res, s.numaPort[home], s.numaPort[rn])
		if s.Topo.NUMASocket(home) != s.Topo.Socket(core) {
			lat += p.SocketHopLat
			cap = p.StreamBW[topo.CrossSocket]
			res = append(res, s.xsLink)
		}
	}
	return lat, res, cap
}

// appendWriteResources appends the destination-side resources of a copy:
// the destination NUMA memory controller when the data cannot stay in the
// writer's cache, plus the fabric path if the destination is remote.
func (s *System) appendWriteResources(res []*resource, core int, dst *Buffer, n int) []*resource {
	inner := s.coreDomains(core)[0]
	if int64(n) <= s.domainShare(inner) {
		return res // write-back absorbed by the cache
	}
	home := dst.HomeNUMA
	rn := s.Topo.NUMA(core)
	res = append(res, s.memRes[home])
	if home != rn {
		res = append(res, s.numaPort[home], s.numaPort[rn])
		if s.Topo.NUMASocket(home) != s.Topo.Socket(core) {
			res = append(res, s.xsLink)
		}
	}
	return res
}

// Queue is a serialization point with exponential-free deterministic
// queueing: callers occupy it back to back.
type Queue struct {
	nextFree sim.Time
	waits    int64
}

// NewQueue returns an idle queue.
func NewQueue() *Queue { return &Queue{} }

// Acquire blocks p until its turn, holding the queue for service time.
// It returns the time spent waiting (excluding service).
func (q *Queue) Acquire(p *sim.Proc, service sim.Duration) sim.Duration {
	now := p.Now()
	start := now
	if q.nextFree > start {
		start = q.nextFree
	}
	q.nextFree = start + service
	wait := start - now
	q.waits += wait
	p.Sleep(wait + service)
	return wait
}

// HoldUntil extends the queue's busy period to at least t, modeling a
// lock held across an operation that was charged separately.
func (q *Queue) HoldUntil(t sim.Time) {
	if t > q.nextFree {
		q.nextFree = t
	}
}

// Waited returns the cumulative wait time observed at the queue.
func (q *Queue) Waited() sim.Duration { return q.waits }
