// Package proto holds the parts of the XHC request layer that move no
// bytes, written once for both backends (internal/core on the simulated
// node, internal/gxhc on real goroutines): the small-broadcast fusion
// rules, the per-request bookkeeping behind the request flight record and
// spans, and the request-layer mutants of the verify self-test. Queueing,
// waking and the collective bodies stay in the backends.
package proto

import "xhc/internal/obs"

// MaxFuseBatch caps how many same-shape small broadcasts one fused
// hierarchy traversal carries (and sizes the per-rank staging buffer).
const MaxFuseBatch = 8

// Fusable reports whether an n-byte broadcast may join a fused batch
// under the fusion threshold fuseMax (<= 0 disables fusion). It looks
// only at rank-uniform facts, so every rank agrees on each op's protocol
// even when their batch boundaries end up ragged.
func Fusable(n, fuseMax int) bool { return n > 0 && n <= fuseMax }

// Kind dispatches a queued request to its backend's blocking body.
type Kind uint8

const (
	Bcast Kind = iota
	Allreduce
	Reduce
	Barrier
	Allgather
	Scatter
	Gather
)

// Req is the backend-independent bookkeeping of one request.
type Req struct {
	Fuse  bool  // a fusable small broadcast (set only by Ibcast)
	Root  int   // the op's root (0 for unrooted ops)
	Bytes int64 // payload bytes (block bytes for the v-collectives)

	Issued   int64 // obs clock at issue (0 when unobserved)
	SvcStart int64 // obs clock when the lane began serving it
}

// Issue records a newly queued request: its issue time when an obs clock
// is attached, and the communicator's in-flight count (inflight, this
// request included) on the recorder's gauge.
func (r *Req) Issue(rec *obs.OpRecorder, clk func() int64, inflight int64) {
	if rec != nil {
		rec.NoteInflight(inflight)
	}
	if clk != nil {
		r.Issued = clk()
	}
}

// StampService records the service start when an obs clock is attached.
func (r *Req) StampService(clk func() int64) {
	if clk != nil {
		r.SvcStart = clk()
	}
}

// Join reports whether the queued request r may join the fused batch
// headed by head: both fusable, same root, same size. A joining request
// shares the head's service start. A fusable request that cannot join is
// a ragged break — the shape mismatch the fusion window tolerates but
// cannot fuse across — and is counted once per op, on rank 0 (the Ops
// convention).
func (r *Req) Join(head *Req, rec *obs.OpRecorder, rank int) bool {
	if r.Fuse && r.Root == head.Root && r.Bytes == head.Bytes {
		r.SvcStart = head.SvcStart
		return true
	}
	if r.Fuse && rec != nil && rank == 0 {
		rec.CountFuseAbort()
	}
	return false
}

// Record commits a completed request's observability: when rec is
// attached, one request flight record spanning issue to completion with
// Phase[PhaseQueueWait] carrying the queued-behind-earlier-requests share
// (service time is the remainder); when t is attached, the request span
// and its queue_wait span on tracer lane lane. rank is the flight lane and
// seq the rank's completion sequence.
func (r *Req) Record(rec *obs.OpRecorder, t *obs.Tracer, clk func() int64, rank, lane int, seq uint64) {
	if rec == nil && t == nil {
		return
	}
	end := clk()
	q := r.SvcStart - r.Issued
	if q < 0 || r.SvcStart == 0 {
		q = 0
	}
	if rec != nil {
		fr := obs.FlightRecord{
			Seq: seq, Start: r.Issued, End: end,
			Bytes: r.Bytes, Lane: int32(rank), Op: obs.OpRequest,
		}
		fr.Phase[obs.PhaseQueueWait] = q
		rec.RecordRequest(fr)
	}
	if t != nil {
		if q > 0 {
			t.Record(lane, -1, obs.PhaseQueueWait, "request", seq, r.Issued, r.Issued+q, r.Bytes)
		}
		t.Record(lane, -1, obs.PhaseCollective, "request", seq, r.Issued, end, r.Bytes)
	}
}

// Mutants seeds the request-layer bugs of the verify harness's mutation
// self-test (DESIGN.md Section 10). Both backends embed it in their
// ChaosConfig and inject each bug at the same protocol point; the zero
// value leaves the request layer untouched.
type Mutants struct {
	// LostProgress makes the request lane drop a finished op on the floor:
	// the body runs, but completion is never published, so Test never
	// reports done and Wait blocks forever — the classic missing-progress
	// bug. Caught by the simulator's deadlock detector and by gxhc's
	// wall-clock Test deadline.
	LostProgress bool

	// EarlyComplete publishes a request's completion without running the
	// collective body at all — completion visible before the data is.
	// Every rank skips uniformly (no cross-rank hang, no data race), so the
	// caller's byte check deterministically sees its stale junk fill.
	// Caught by the per-request byte-exactness invariant.
	EarlyComplete bool

	// FuseCorrupt makes the fused-broadcast root corrupt its staged batch
	// (CorruptStaged) before exposing it. Caught by byte-exactness.
	FuseCorrupt bool
}

// CorruptStaged applies the FuseCorrupt mutant to a root's staging buffer
// holding k n-byte sub-ops: each sub-op is rotated left by one byte, which
// corrupts every sub-op deterministically at any batch length. It reports
// whether it changed anything (payloads under two bytes rotate to
// themselves).
func (m Mutants) CorruptStaged(stg []byte, k, n int) bool {
	if !m.FuseCorrupt || n < 2 {
		return false
	}
	for i := 0; i < k; i++ {
		b := stg[i*n : (i+1)*n]
		first := b[0]
		copy(b, b[1:])
		b[n-1] = first
	}
	return true
}
