package mem

import (
	"fmt"
	"slices"

	"xhc/internal/sim"
)

// resource is one shared bandwidth capacity (a memory controller, fabric
// port, link, cache port, or a core's streaming limit).
type resource struct {
	name     string
	capacity float64 // bytes/sec

	// scratch for the max-min solver
	remCap    float64
	undecided int
	seenGen   uint64 // generation stamp replacing a per-solve seen map

	// flows lists the active System flows crossing this resource, each
	// flow once even when it crosses the resource twice (a copy whose read
	// and write both hit one memory controller). Entries are swap-removed,
	// so their order carries no meaning. walkGen stamps the resource as
	// reached by a component walk (see solveChanged).
	flows   []flowRef
	walkGen uint64
}

// flowRef is one entry of a resource's flow list: the flow and the index
// of the resource in the flow's res, so a swap-removal can repoint the
// moved entry's slot in O(1).
type flowRef struct {
	f *flow
	k int
}

// maxFlowRes bounds the resources one flow can cross: read path (memory
// controller, two fabric ports, inter-socket link, core) plus write path
// (memory controller, two ports, link) is at most 9; 12 leaves slack.
const maxFlowRes = 12

// flow is one in-flight bulk transfer crossing a set of resources. Flows
// are pooled per System: completeFlow returns them for reuse so the
// steady-state hot loop does not allocate.
type flow struct {
	id        int
	res       []*resource // aliases resArr except for degenerate cases
	resArr    [maxFlowRes]*resource
	remaining float64 // bytes
	rate      float64 // bytes/sec
	last      sim.Time
	deadline  sim.Time // completion time computed at the last reschedule
	proc      *sim.Proc
	token     uint64
	done      bool
	rateCap   float64 // private per-flow cap (kernel copy engines); 0 = none

	// slot[k] is the flow's position in res[k].flows, or -1 when res[k]
	// repeats an earlier resource of the flow (listed there once).
	slot    [maxFlowRes]int32
	walkGen uint64 // component-walk stamp, like resource.walkGen
}

// transfer moves n bytes for proc p (running on core) along the given
// resources, blocking p until the flow completes under max-min fair
// sharing with all concurrent flows.
func (s *System) transfer(p *sim.Proc, res []*resource, n int, rateCap float64) {
	if n <= 0 {
		return
	}
	f := s.startFlow(p, res, n, rateCap)
	f.token = p.NextSuspendToken()
	p.Suspend("flow")
}

// startFlow admits a flow of n bytes for p along res and reschedules. It
// is transfer without the blocking, so tests can drive arrivals directly.
func (s *System) startFlow(p *sim.Proc, res []*resource, n int, rateCap float64) *flow {
	s.flowSeq++
	f := s.getFlow()
	f.id = s.flowSeq
	f.res = append(f.resArr[:0], res...)
	f.remaining = float64(n)
	f.rate = 0
	f.last = s.Eng.Now()
	f.deadline = 0
	f.proc = p
	f.token = 0
	f.done = false
	f.rateCap = rateCap
	// flowSeq increases monotonically, so appending keeps active id-ordered.
	s.active = append(s.active, f)
	f.link()
	s.Stats.FlowsStarted++
	s.Stats.BytesMoved += int64(n)
	if len(s.active) > s.Stats.MaxConcurrent {
		s.Stats.MaxConcurrent = len(s.active)
	}
	s.reschedule(f, true)
	return f
}

// getFlow pops a pooled flow (or allocates the pool's first tenants).
func (s *System) getFlow() *flow {
	if n := len(s.flowPool); n > 0 {
		f := s.flowPool[n-1]
		s.flowPool = s.flowPool[:n-1]
		return f
	}
	return &flow{}
}

// completeFlow finishes f, wakes its process, and recycles the flow.
func (s *System) completeFlow(f *flow) {
	if f.done {
		return
	}
	proc, token := f.proc, f.token
	s.endFlow(f)
	s.Eng.Wake(proc, token, s.Eng.Now())
}

// endFlow retires f, reschedules, and recycles the flow: completeFlow
// without the wake.
func (s *System) endFlow(f *flow) {
	f.done = true
	i := flowIndex(s.active, f.id)
	copy(s.active[i:], s.active[i+1:])
	s.active[len(s.active)-1] = nil
	s.active = s.active[:len(s.active)-1]
	f.unlink()
	s.reschedule(f, false)
	f.proc = nil
	f.res = nil
	s.flowPool = append(s.flowPool, f)
}

// flowIndex finds the position of flow id in the id-ordered slice.
func flowIndex(flows []*flow, id int) int {
	lo, hi := 0, len(flows)
	for lo < hi {
		mid := (lo + hi) / 2
		if flows[mid].id < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// link enters f in the flow list of every resource it crosses.
func (f *flow) link() {
	for k, r := range f.res {
		if slices.Contains(f.res[:k], r) {
			f.slot[k] = -1
			continue
		}
		f.slot[k] = int32(len(r.flows))
		r.flows = append(r.flows, flowRef{f, k})
	}
}

// unlink swap-removes f from the flow lists link entered it in.
func (f *flow) unlink() {
	for k, r := range f.res {
		i := f.slot[k]
		if i < 0 {
			continue
		}
		last := len(r.flows) - 1
		moved := r.flows[last]
		r.flows[i] = moved
		moved.f.slot[moved.k] = i
		r.flows[last] = flowRef{}
		r.flows = r.flows[:last]
	}
}

// reschedule advances all flows to now, re-solves the rates the arrival
// or departure of changed can change (solveChanged), and re-arms the
// single completion event. Called on every flow arrival and departure.
func (s *System) reschedule(changed *flow, arrived bool) {
	now := s.Eng.Now()
	for _, f := range s.active {
		if f.rate > 0 {
			f.remaining -= f.rate * float64(now-f.last) / float64(sim.Second)
			if f.remaining < 0 {
				f.remaining = 0
			}
		}
		f.last = now
	}
	s.solveChanged(changed, arrived)
	earliest := sim.Time(-1)
	for _, f := range s.active {
		var d sim.Duration
		if f.rate > 0 {
			d = sim.Duration(f.remaining / f.rate * float64(sim.Second))
		}
		if d < 1 && f.remaining > 0 {
			d = 1
		}
		f.deadline = now + d
		if earliest < 0 || f.deadline < earliest {
			earliest = f.deadline
		}
	}
	if earliest >= 0 {
		s.armCompletion(earliest)
	}
	if s.onReschedule != nil {
		s.onReschedule()
	}
}

// solveChanged re-solves the rates of the flows in the connected
// component(s) of the flow/resource graph (flows joined by shared
// resources) that the arrival or departure of f touches. Max-min fairness
// decomposes exactly over components: a freeze round bounded in one
// component freezes nothing in another (DESIGN.md §8 has the argument and
// the oracle tests that pin it). So every other flow keeps its rate, and
// each touched component is handed to the solver on its own, in id order
// — the order the whole-set solve visited its flows in.
//
// connected records whether the active set is one component; false is
// always safe (it only costs a walk). These exact shortcuts spare the
// common single-component case the walk:
//   - an arriving flow that shares no resource is its own component;
//   - an arrival into a connected set that shares a resource joins it;
//   - a resource of f that carries every active flow makes one component;
//   - a departure from a connected set leaves it connected when one
//     surviving flow crosses every resource of f that still carries
//     flows, since that flow stands in for f on any path through f.
//
// Otherwise a generation-stamped walk from f's resources finds the
// component, stopping once it has reached every active flow.
func (s *System) solveChanged(f *flow, arrived bool) {
	if arrived {
		switch {
		case !f.sharesResource():
			s.connected = len(s.active) == 1
			s.comp = append(s.comp[:0], f)
			s.solveRates(s.comp)
		case s.connected || s.carriesAll(f):
			s.connected = true
			s.solveRates(s.active)
		default:
			s.connected = s.solveWalk(f.res)
		}
		return
	}
	if s.carriesAll(f) || (s.connected && spannedBySurvivor(f)) {
		s.connected = true
		s.solveRates(s.active)
		return
	}
	// A departure can split its component: solve each part on its own.
	start := s.walkGen
	for k, r := range f.res {
		if len(r.flows) == 0 || r.walkGen > start {
			continue
		}
		if s.solveWalk(f.res[k : k+1]) {
			s.connected = true
			return
		}
		s.connected = false
	}
}

// sharesResource reports whether a linked flow f crosses a resource that
// carries another flow.
func (f *flow) sharesResource() bool {
	for _, r := range f.res {
		if len(r.flows) > 1 {
			return true
		}
	}
	return false
}

// carriesAll reports whether one of f's resources carries every active
// flow.
func (s *System) carriesAll(f *flow) bool {
	for _, r := range f.res {
		if len(r.flows) == len(s.active) {
			return true
		}
	}
	return false
}

// spannedBySurvivor reports whether one active flow crosses every
// resource of the departed flow f that still carries flows. Candidates
// come from the shortest such list.
func spannedBySurvivor(f *flow) bool {
	var short *resource
	for _, r := range f.res {
		if len(r.flows) > 0 && (short == nil || len(r.flows) < len(short.flows)) {
			short = r
		}
	}
	if short == nil {
		return false
	}
next:
	for _, ref := range short.flows {
		for _, r := range f.res {
			if len(r.flows) > 0 && !slices.Contains(ref.f.res, r) {
				continue next
			}
		}
		return true
	}
	return false
}

// solveWalk solves the component reached from the seed resources and
// reports whether it was the whole active set. The walk stamps flows and
// resources with a fresh generation, so it needs no clearing.
func (s *System) solveWalk(seed []*resource) bool {
	s.walkGen++
	gen := s.walkGen
	stack := s.stack[:0]
	for _, r := range seed {
		if r.walkGen != gen {
			r.walkGen = gen
			stack = append(stack, r)
		}
	}
	n, reached := len(s.active), 0
walk:
	for len(stack) > 0 {
		r := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, ref := range r.flows {
			g := ref.f
			if g.walkGen == gen {
				continue
			}
			g.walkGen = gen
			if reached++; reached == n {
				break walk
			}
			for _, q := range g.res {
				if q.walkGen != gen {
					q.walkGen = gen
					stack = append(stack, q)
				}
			}
		}
	}
	s.stack = stack[:0]
	if reached == n {
		s.solveRates(s.active)
		return true
	}
	comp := s.comp[:0]
	for _, g := range s.active {
		if g.walkGen == gen {
			comp = append(comp, g)
		}
	}
	s.comp = comp
	s.solveRates(comp)
	return false
}

// armCompletion schedules the single completion event at t, invalidating
// whatever was armed before. A fresh event is pushed on every reschedule —
// exactly when the old per-flow closures were pushed — so same-timestamp
// event ordering (and therefore determinism) is bit-identical to the
// previous scheme, while the heap gains one entry per reschedule instead
// of one per flow per reschedule. The version rides on the event (AtTag),
// so arming allocates nothing.
func (s *System) armCompletion(t sim.Time) {
	s.cmplVersion++
	s.Eng.AtTag(t, s.cmplVersion, s.cmplFired)
}

// completionFired is the single completion handler: a stale version means
// a reschedule re-armed since this event was pushed. A valid firing
// completes the first due flow in id order; completeFlow reschedules and
// re-arms, continuing the cascade for simultaneous completions exactly
// like the old per-flow events did.
func (s *System) completionFired(v uint64) {
	if v != s.cmplVersion {
		return
	}
	now := s.Eng.Now()
	for _, f := range s.active {
		if f.deadline <= now {
			s.completeFlow(f)
			return
		}
	}
}

// solveRates computes max-min fair rates for one component's flows (in id
// order) through the shared solver (solver.go), then mirrors the solver's
// counters into Stats so reports keep their fields.
func (s *System) solveRates(flows []*flow) {
	s.solver.solve(flows)
	s.Stats.SolverFastPath = s.solver.FastPath
	s.Stats.SolverFallbacks = s.solver.Fallbacks
	s.Stats.SolverCalls = s.solver.Calls
	s.Stats.SolverFlows = s.solver.Flows
	s.Stats.SolverRounds = s.solver.Rounds
}

// Copy moves n bytes from src[soff:] to dst[doff:] as performed by core,
// blocking p for the modeled duration and performing the byte copy for
// real. It updates cache residency of both buffers.
func (s *System) Copy(p *sim.Proc, core int, dst *Buffer, doff int, src *Buffer, soff, n int) {
	if n == 0 {
		return
	}
	if doff < 0 || soff < 0 || doff+n > len(dst.Data) || soff+n > len(src.Data) {
		panic(fmt.Sprintf("mem: copy out of range: dst[%d:+%d]/%d src[%d:+%d]/%d",
			doff, n, len(dst.Data), soff, n, len(src.Data)))
	}
	var t0 sim.Time
	if s.OnFlow != nil {
		t0 = s.Eng.Now()
	}
	var rbuf [maxFlowRes]*resource
	lat, res, cap := s.readPath(core, src, rbuf[:0])
	res = s.appendWriteResources(res, core, dst, n)
	p.Sleep(s.Params.CopyOverhead + lat)
	s.transfer(p, res, n, cap)
	copy(dst.Data[doff:doff+n], src.Data[soff:soff+n])
	s.markRead(src, core)
	s.MarkWritten(dst, core)
	if s.OnFlow != nil {
		s.OnFlow(core, n, t0, s.Eng.Now())
	}
}

// KernelCopy is Copy through a kernel-mediated engine (CMA/KNEM): the
// caller has already paid syscall/lock costs; the stream itself is capped
// at KernelCopyBW.
func (s *System) KernelCopy(p *sim.Proc, core int, dst *Buffer, doff int, src *Buffer, soff, n int) {
	if n == 0 {
		return
	}
	var t0 sim.Time
	if s.OnFlow != nil {
		t0 = s.Eng.Now()
	}
	var rbuf [maxFlowRes]*resource
	lat, res, cap := s.readPath(core, src, rbuf[:0])
	res = s.appendWriteResources(res, core, dst, n)
	p.Sleep(lat)
	kcap := s.Params.KernelCopyBW
	if cap > 0 && cap < kcap {
		kcap = cap // the kernel's copy loop hits the same distance limits
	}
	s.transfer(p, res, n, kcap)
	copy(dst.Data[doff:doff+n], src.Data[soff:soff+n])
	s.markRead(src, core)
	s.MarkWritten(dst, core)
	if s.OnFlow != nil {
		s.OnFlow(core, n, t0, s.Eng.Now())
	}
}

// ChargeRead accounts for core streaming n bytes of src (as a reduction
// kernel input) without copying them anywhere.
func (s *System) ChargeRead(p *sim.Proc, core int, src *Buffer, soff, n int) {
	if n == 0 {
		return
	}
	if soff < 0 || soff+n > len(src.Data) {
		panic(fmt.Sprintf("mem: read out of range: src[%d:+%d]/%d", soff, n, len(src.Data)))
	}
	var t0 sim.Time
	if s.OnFlow != nil {
		t0 = s.Eng.Now()
	}
	var rbuf [maxFlowRes]*resource
	lat, res, cap := s.readPath(core, src, rbuf[:0])
	p.Sleep(s.Params.CopyOverhead + lat)
	s.transfer(p, res, n, cap)
	s.markRead(src, core)
	if s.OnFlow != nil {
		s.OnFlow(core, n, t0, s.Eng.Now())
	}
}

// ChargeCompute accounts for a streaming compute kernel over n bytes at
// the platform's reduction rate.
func (s *System) ChargeCompute(p *sim.Proc, n int) {
	p.Sleep(sim.BytesOver(int64(n), s.Params.ReduceBW))
}

// ActiveFlows returns the number of in-flight transfers (for tests).
func (s *System) ActiveFlows() int { return len(s.active) }
