package env

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"xhc/internal/mem"
	"xhc/internal/sim"
	"xhc/internal/topo"
)

func testCluster(t *testing.T, nodes, perNode int) (*topo.Cluster, topo.Mapping) {
	t.Helper()
	node := topo.Epyc1P()
	cl, err := topo.NewCluster(nodes, node)
	if err != nil {
		t.Fatal(err)
	}
	m, err := node.Map(topo.MapCore, perNode)
	if err != nil {
		t.Fatal(err)
	}
	return cl, m
}

// TestClusterSendRecv pushes one message each way between two nodes and
// checks payload integrity, timing sanity, and FIFO matching.
func TestClusterSendRecv(t *testing.T) {
	cl, m := testCluster(t, 2, 1)
	cw := NewClusterWorldDefault(cl, m)
	cw.Workers = 1
	got := make([]byte, 4)
	var txDone, arrive sim.Time
	err := cw.Run(func(p *Proc, node int) {
		if node == 0 {
			b := p.NewBuffer("src", 4)
			copy(b.Data, []byte{1, 2, 3, 4})
			cw.Send(p, 0, 1, b, 0, 4)
			txDone = p.Now()
			// Overwrite after send: the fabric snapshotted the payload.
			b.Data[0] = 99
		} else {
			b := p.NewBuffer("dst", 4)
			cw.Recv(p, 1, 0, b, 0, 4)
			arrive = p.Now()
			copy(got, b.Data)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := []byte{1, 2, 3, 4}; string(got) != string(want) {
		t.Fatalf("payload %v, want %v", got, want)
	}
	if txDone <= 0 || arrive <= txDone {
		t.Fatalf("timing: txDone=%d arrive=%d", txDone, arrive)
	}
}

// TestClusterZeroByteMessage exercises the 0-byte fabric edge: control
// messages cost pure latency and need no buffer.
func TestClusterZeroByteMessage(t *testing.T) {
	cl, m := testCluster(t, 2, 1)
	cw := NewClusterWorldDefault(cl, m)
	cw.Workers = 1
	var arrive sim.Time
	err := cw.Run(func(p *Proc, node int) {
		if node == 0 {
			cw.Send(p, 0, 1, nil, 0, 0)
		} else {
			cw.Recv(p, 1, 0, nil, 0, 0)
			arrive = p.Now()
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := sim.Time(mem.DefaultFabricParams().LinkLat); arrive != want {
		t.Fatalf("0-byte arrival at %d, want link latency %d", arrive, want)
	}
}

// TestClusterHarnessBarrier checks the cross-node rendezvous: every rank
// resumes at (or after) the latest arrival.
func TestClusterHarnessBarrier(t *testing.T) {
	cl, m := testCluster(t, 3, 2)
	cw := NewClusterWorldDefault(cl, m)
	cw.Workers = 1
	after := make([]sim.Time, cw.N)
	err := cw.Run(func(p *Proc, node int) {
		g := cw.GlobalRank(node, p.Rank)
		p.Compute(sim.Duration(g) * sim.Microsecond) // staggered arrivals
		cw.HarnessBarrier(p, node)
		after[g] = p.Now()
	})
	if err != nil {
		t.Fatal(err)
	}
	latest := sim.Time(sim.Duration(cw.N-1) * sim.Microsecond)
	for g, at := range after {
		if at < latest {
			t.Fatalf("rank %d left barrier at %d, before latest arrival %d", g, at, latest)
		}
	}
}

// TestClusterDeadlockReported pins that an unmatched receive surfaces as a
// cluster deadlock error rather than a hang, that the report names the
// stuck proc, and that no proc's goroutine outlives the failed run.
func TestClusterDeadlockReported(t *testing.T) {
	cl, m := testCluster(t, 2, 1)
	cw := NewClusterWorldDefault(cl, m)
	cw.Workers = 1
	base := runtime.NumGoroutine()
	err := cw.Run(func(p *Proc, node int) {
		if node == 1 {
			b := p.NewBuffer("dst", 8)
			cw.Recv(p, 1, 0, b, 0, 8) // nobody sends
		}
	})
	if err == nil {
		t.Fatal("expected cluster deadlock error")
	}
	if !strings.Contains(err.Error(), "n1r0(#0): fabric recv") {
		t.Errorf("deadlock report does not name the stuck receiver:\n%v", err)
	}
	if got := runtime.NumGoroutine(); got > base {
		t.Errorf("%d goroutines after the deadlocked run, %d before", got, base)
	}
}

// TestClusterWorkerCountInvariant is the sharded-vs-single-threaded
// determinism pin at the env level: the same program produces bit-equal
// schedule fingerprints and payloads at every worker count.
func TestClusterWorkerCountInvariant(t *testing.T) {
	run := func(workers int) (uint64, string) {
		cl, m := testCluster(t, 4, 4)
		cw := NewClusterWorldDefault(cl, m)
		cw.Workers = workers
		cw.EnableScheduleHash()
		out := make([]byte, cw.N)
		err := cw.Run(func(p *Proc, node int) {
			g := cw.GlobalRank(node, p.Rank)
			buf := p.NewBuffer("b", 64)
			for i := range buf.Data {
				buf.Data[i] = byte(g)
			}
			cw.HarnessBarrier(p, node)
			if p.Rank == 0 { // leaders ring-pass a token
				next := (node + 1) % cl.Nodes
				prev := (node + cl.Nodes - 1) % cl.Nodes
				if node == 0 {
					cw.Send(p, node, next, buf, 0, 64)
					cw.Recv(p, node, prev, buf, 0, 64)
				} else {
					cw.Recv(p, node, prev, buf, 0, 64)
					cw.Send(p, node, next, buf, 0, 64)
				}
			}
			cw.HarnessBarrier(p, node)
			out[g] = buf.Data[0]
		})
		if err != nil {
			t.Fatal(err)
		}
		return cw.Fingerprint(), fmt.Sprint(out)
	}
	h1, o1 := run(1)
	for _, w := range []int{2, 4, 0} {
		h, o := run(w)
		if h != h1 || o != o1 {
			t.Fatalf("workers=%d diverged: hash %#x vs %#x, out %s vs %s", w, h, h1, o, o1)
		}
	}
}
