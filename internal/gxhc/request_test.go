package gxhc

import (
	"testing"

	"xhc/internal/obs"
)

// TestTraceOnlyRecordsRequestSpans pins that request spans follow the
// tracer, not the flight recorder: a communicator with only EnableTrace
// must still get one request span per completed non-blocking op.
func TestTraceOnlyRecordsRequestSpans(t *testing.T) {
	const n = 4
	c := MustNew(n, Config{GroupSize: 2})
	defer c.Close()
	tr := c.EnableTrace()
	bufs := make([][]byte, n)
	for r := range bufs {
		bufs[r] = make([]byte, 256)
	}
	runAll(n, func(rank int) {
		c.Ibcast(rank, bufs[rank], 0).Wait()
	})
	for rank := 0; rank < n; rank++ {
		found := false
		for _, s := range tr.LaneSpans(rank) {
			if s.Op == "request" && s.Phase == obs.PhaseCollective {
				found = true
			}
		}
		if !found {
			t.Errorf("rank %d: no request span with only a tracer attached", rank)
		}
	}
}

// TestFusedBcastRootBlamesCopy pins the fused-broadcast segment order: the
// root stages its batch before exposing it, so its first segment of every
// fused traversal is chunk_copy and starts at the op's start — the
// staging copy is never blamed on expose.
func TestFusedBcastRootBlamesCopy(t *testing.T) {
	const n, window, payload = 8, 4, 1024
	c := MustNew(n, Config{GroupSize: 4})
	defer c.Close()
	tr := c.EnableTrace()
	bufs := make([][][]byte, n)
	for r := range bufs {
		bufs[r] = make([][]byte, window)
		for s := range bufs[r] {
			bufs[r][s] = make([]byte, payload)
		}
	}
	runAll(n, func(rank int) {
		rs := make([]*Request, window)
		for s := range rs {
			rs[s] = c.Ibcast(rank, bufs[rank][s], 0)
		}
		Waitall(rs...)
	})
	first := map[uint64]obs.Span{}
	var colls []obs.Span
	for _, s := range tr.LaneSpans(0) {
		if s.Op != "bcast" {
			continue
		}
		if s.Phase == obs.PhaseCollective {
			colls = append(colls, s)
		} else if _, ok := first[s.Seq]; !ok {
			first[s.Seq] = s
		}
	}
	if len(colls) == 0 {
		t.Fatal("root recorded no fused bcast traversal")
	}
	for _, op := range colls {
		seg, ok := first[op.Seq]
		if !ok {
			t.Fatalf("fused op %d: root recorded no segments", op.Seq)
		}
		if seg.Phase != obs.PhaseChunkCopy || seg.Start != op.Start {
			t.Errorf("fused op %d: root's first segment is %v at +%d, want chunk_copy at the op start",
				op.Seq, seg.Phase, seg.Start-op.Start)
		}
	}
}
