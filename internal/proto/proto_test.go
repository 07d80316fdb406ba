package proto

import (
	"bytes"
	"testing"

	"xhc/internal/obs"
)

func TestFusable(t *testing.T) {
	for _, c := range []struct {
		n, max int
		want   bool
	}{
		{0, 1024, false}, // empty broadcasts never fuse
		{1, 1024, true},
		{1024, 1024, true},
		{1025, 1024, false},
		{8, 0, false}, // fusion disabled
		{8, -1, false},
	} {
		if got := Fusable(c.n, c.max); got != c.want {
			t.Errorf("Fusable(%d, %d) = %v, want %v", c.n, c.max, got, c.want)
		}
	}
}

// TestJoin pins the batch-join rule (both fusable, same root, same size),
// the service-start hand-down and the ragged-abort count: a fusable
// request that cannot join is counted on rank 0 only, a non-fusable one
// never.
func TestJoin(t *testing.T) {
	rec := obs.NewRegistry(false).NewWorld("t", 2, obs.WallTicksPerUS, obs.WallClock()).Rec
	head := Req{Fuse: true, Root: 1, Bytes: 64, SvcStart: 7}
	aborts := func() int64 { _, _, _, a := rec.FusionCounts(); return a }

	nx := Req{Fuse: true, Root: 1, Bytes: 64}
	if !nx.Join(&head, rec, 0) || nx.SvcStart != 7 {
		t.Fatalf("same-shape request did not join (svcStart %d)", nx.SvcStart)
	}
	for _, nx := range []Req{
		{Fuse: true, Root: 0, Bytes: 64},
		{Fuse: true, Root: 1, Bytes: 32},
	} {
		if nx.Join(&head, rec, 0) {
			t.Fatalf("%+v joined a batch of a different shape", nx)
		}
	}
	if got := aborts(); got != 2 {
		t.Fatalf("ragged aborts = %d, want 2", got)
	}
	other := Req{Fuse: true, Root: 0, Bytes: 64}
	plain := Req{Root: 1, Bytes: 64}
	if other.Join(&head, rec, 1) || plain.Join(&head, rec, 0) {
		t.Fatal("mismatched or non-fusable request joined")
	}
	if got := aborts(); got != 2 {
		t.Fatalf("ragged aborts = %d after rank-1 and non-fusable breaks, want still 2", got)
	}
}

// TestRecordSplitsQueueAndService checks the completion record: the flight
// record spans issue to completion with the queue share in
// PhaseQueueWait, and a tracer alone still gets the request spans.
func TestRecordSplitsQueueAndService(t *testing.T) {
	now := int64(0)
	clk := func() int64 { return now }
	w := obs.NewRegistry(true).NewWorld("t", 2, obs.WallTicksPerUS, clk)
	r := Req{Bytes: 64, Issued: 10, SvcStart: 25}
	now = 40
	r.Record(w.Rec, w.Tracer, clk, 1, 1, 3)
	recs := w.Rec.Flight().LaneRecords(1)
	if len(recs) != 1 {
		t.Fatalf("%d flight records, want 1", len(recs))
	}
	fr := recs[0]
	if fr.Start != 10 || fr.End != 40 || fr.Phase[obs.PhaseQueueWait] != 15 || fr.Seq != 3 || fr.Op != obs.OpRequest {
		t.Fatalf("flight record %+v, want [10,40] seq 3 with 15 ticks queued", fr)
	}

	tr := obs.NewTracer("t", 0, 2, obs.WallTicksPerUS, clk)
	r.Record(nil, tr, clk, 0, 0, 1)
	var phases []obs.Phase
	for _, s := range tr.LaneSpans(0) {
		phases = append(phases, s.Phase)
	}
	if len(phases) != 2 || phases[0] != obs.PhaseQueueWait || phases[1] != obs.PhaseCollective {
		t.Fatalf("tracer-only spans %v, want [queue_wait collective]", phases)
	}
	// Unobserved: no clock read at all.
	r.Record(nil, nil, nil, 0, 0, 2)
}

func TestCorruptStaged(t *testing.T) {
	stg := []byte{1, 2, 3, 4, 5, 6, 7, 8, 9}
	if (Mutants{}).CorruptStaged(stg, 3, 3) {
		t.Fatal("inactive mutant corrupted the batch")
	}
	if !(Mutants{FuseCorrupt: true}).CorruptStaged(stg, 2, 3) {
		t.Fatal("active mutant left the batch alone")
	}
	if want := []byte{2, 3, 1, 5, 6, 4, 7, 8, 9}; !bytes.Equal(stg, want) {
		t.Fatalf("staged = %v, want every sub-op rotated left: %v", stg, want)
	}
	if (Mutants{FuseCorrupt: true}).CorruptStaged(stg, 9, 1) {
		t.Fatal("one-byte sub-ops reported corrupted")
	}
}
