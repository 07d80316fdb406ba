package obs

import "testing"

// TestSegClockPartitions pins the segment-clock contract both backends
// rely on: marks partition [start, finish] exactly into per-phase
// durations, zero-length segments leave no span, the tracer lane and
// flight lane are independent, BeginNet routes to RecordNet, and a nil
// pool hands out no-op clocks.
func TestSegClockPartitions(t *testing.T) {
	now := int64(100)
	clk := func() int64 { return now }
	w := NewRegistry(true).NewWorld("t", 4, WallTicksPerUS, clk)
	pool := NewSegClocks(w.Tracer, w.Rec, clk, 2)

	sc := pool.Begin(1, 3, OpBcast, 9, 64, 2)
	now = 110
	sc.Mark(-1, PhaseExpose, 0)
	sc.Mark(-1, PhaseExpose, 0) // zero length: no span
	now = 130
	sc.MarkFrom(0, PhaseFlagWait, 0, 2)
	now = 135
	sc.Mark(0, PhaseChunkCopy, 64)
	sc.Finish()

	recs := w.Rec.Flight().LaneRecords(1)
	if len(recs) != 1 {
		t.Fatalf("%d flight records on rank 1, want 1", len(recs))
	}
	fr := recs[0]
	var sum int64
	for _, d := range fr.Phase {
		sum += d
	}
	if fr.Start != 100 || fr.End != 135 || sum != fr.Dur() || fr.Chunks != 1 || fr.Kind != RecOp {
		t.Fatalf("record %+v does not partition [100,135] with 1 chunk", fr)
	}
	spans := w.Tracer.LaneSpans(3)
	if len(spans) != 4 || spans[1].From != 2 || spans[3].Phase != PhaseCollective {
		t.Fatalf("tracer lane 3 spans %+v, want expose, flag_wait(from 2), chunk_copy, collective", spans)
	}

	net := pool.BeginNet(0, 0, OpBcast, 1, 8)
	now = 140
	net.Finish()
	if recs := w.Rec.Flight().LaneRecords(0); len(recs) != 1 || recs[0].Kind != RecNet {
		t.Fatalf("net clock records %+v, want one RecNet record", recs)
	}

	var none *SegClocks
	nc := none.Begin(0, 0, OpBarrier, 1, 0, 1)
	if nc != nil || none.BeginNet(0, 0, OpBarrier, 1, 0) != nil {
		t.Fatal("nil pool handed out a clock")
	}
	nc.Mark(-1, PhaseAck, 0)
	nc.Finish()
}
