package obs

// SegClock attributes one rank's time inside one collective operation to
// phases. It is a segment clock: each mark closes the interval from the
// previous mark (or the operation start) to now and records it as the given
// phase, so the phase spans partition the operation exactly — their
// durations sum to the operation's latency with no gaps or overlaps.
//
// The clock feeds two consumers: the span tracer (when tracing is enabled)
// and the always-on flight recorder, which gets one compact FlightRecord
// per operation with the per-phase duration breakdown. Both backends run
// it — virtual time in simulated worlds, wall time in gxhc.
//
// A nil *SegClock is a no-op on every method, so unobserved runs keep the
// hot loop free of allocations and of any timing perturbation.
type SegClock struct {
	t   *Tracer     // nil unless tracing
	rec *OpRecorder // flight + histogram sink; nil when not attached
	clk func() int64

	lane  int   // tracer lane
	frank int32 // flight lane
	op    OpCode
	seq   uint64
	bytes int64
	lvls  uint8
	chnks uint16

	// net marks a cluster-level network clock (a node leader's NIC staging
	// + fabric exchange): Finish commits through RecordNet, whose records
	// ride their own kind and seq stream.
	net bool

	start int64
	last  int64
	durs  [NPhases]int64
}

// SegClocks is a per-rank pool of segment clocks sharing one set of sinks.
// Each rank runs one operation at a time, so Begin reuses the rank's slot
// and the record path stays allocation-free. A nil pool (an unobserved
// communicator) hands out nil clocks.
type SegClocks struct {
	t     *Tracer
	rec   *OpRecorder
	clk   func() int64
	slots []SegClock
}

// NewSegClocks builds a pool of ranks clocks recording into t and rec
// (either may be nil) on clock clk.
func NewSegClocks(t *Tracer, rec *OpRecorder, clk func() int64, ranks int) *SegClocks {
	return &SegClocks{t: t, rec: rec, clk: clk, slots: make([]SegClock, ranks)}
}

// Begin starts phase attribution for one operation on rank, whose spans
// go to tracer lane lane. bytes is the operation's payload size (per-rank
// block size for the v-collectives) and levels the hierarchy depth, both
// carried into the flight record.
func (p *SegClocks) Begin(rank, lane int, op OpCode, seq uint64, bytes int64, levels int) *SegClock {
	if p == nil {
		return nil
	}
	sc := &p.slots[rank]
	now := p.clk()
	*sc = SegClock{
		t: p.t, rec: p.rec, clk: p.clk,
		lane: lane, frank: int32(rank), op: op, seq: seq,
		bytes: bytes, lvls: uint8(levels),
		start: now, last: now,
	}
	return sc
}

// BeginNet is Begin for a cluster-level network operation: Finish commits
// the record through RecordNet.
func (p *SegClocks) BeginNet(rank, lane int, op OpCode, seq uint64, bytes int64) *SegClock {
	sc := p.Begin(rank, lane, op, seq, bytes, 0)
	if sc != nil {
		sc.net = true
	}
	return sc
}

// Mark closes the segment since the previous mark as phase ph at the given
// hierarchy level (-1 when the segment spans levels). Zero-length segments
// are dropped from the trace but chunk-copy marks still count toward the
// record's chunk tally.
func (sc *SegClock) Mark(level int, ph Phase, bytes int64) {
	sc.MarkFrom(level, ph, bytes, -1)
}

// MarkFrom is Mark with an explicit causal parent lane: wait segments pass
// the lane whose flag write releases this rank, giving the span graph its
// cross-lane critical-path edges. from is -1 when unknown.
func (sc *SegClock) MarkFrom(level int, ph Phase, bytes int64, from int) {
	if sc == nil {
		return
	}
	now := sc.clk()
	if now > sc.last {
		sc.durs[ph] += now - sc.last
		if sc.t != nil {
			sc.t.RecordLinked(sc.lane, level, ph, sc.op.String(), sc.seq, sc.last, now, bytes, from)
		}
	}
	if ph == PhaseChunkCopy && bytes > 0 && sc.chnks < ^uint16(0) {
		sc.chnks++
	}
	sc.last = now
}

// Finish records the umbrella collective span and commits the operation's
// flight record.
func (sc *SegClock) Finish() {
	if sc == nil {
		return
	}
	now := sc.clk()
	if sc.t != nil {
		sc.t.Record(sc.lane, -1, PhaseCollective, sc.op.String(), sc.seq, sc.start, now, sc.bytes)
	}
	if sc.rec == nil {
		return
	}
	rec := FlightRecord{
		Seq: sc.seq, Start: sc.start, End: now, Bytes: sc.bytes,
		Phase: sc.durs, Lane: sc.frank, Chunks: sc.chnks,
		Levels: sc.lvls, Op: sc.op,
	}
	if sc.net {
		sc.rec.RecordNet(rec)
	} else {
		sc.rec.RecordFlight(rec)
	}
}
