package core

import (
	"fmt"

	"xhc/internal/env"
	"xhc/internal/mem"
	"xhc/internal/mpi"
	"xhc/internal/obs"
	"xhc/internal/proto"
	"xhc/internal/shm"
	"xhc/internal/sim"
	"xhc/internal/xpmem"
)

// Non-blocking collectives over the simulated backend. Each rank owns a
// request lane: Icollective calls append a Request to the lane's queue and
// (lazily) spawn a helper process on the same core that drains the queue in
// issue order, executing the normal blocking bodies. Progress is therefore
// genuinely asynchronous in virtual time — the issuing rank computes on
// while its helper moves bytes — and the engine's schedule exploration
// interleaves helpers of different ranks and different communicators.
//
// Same-shape small broadcasts (n <= CICOThreshold, same root) queued
// back-to-back are fused: the helper pops a whole prefix and runs one
// hierarchy traversal that carries every sub-op in a per-rank staging
// buffer (fusedBcast below). The fusion and batch-join rules are shared
// with gxhc (internal/proto).

// testPoll is the virtual-time backoff Test takes when the request is not
// yet done: a pure re-check would never return control to the engine, so
// Test always advances the clock enough for helpers to run.
const testPoll = 100 * sim.Nanosecond

// Request is a handle on one outstanding non-blocking collective. It is
// owned by the issuing rank: only that rank may Test/Wait it, and a
// successful Test or a Wait consumes the handle (MPI_REQUEST_NULL
// discipline — the object returns to the lane's freelist and must not be
// touched again). Done is the non-consuming peek for harness code that
// checks completion ordering across several live requests.
type Request struct {
	c    *Comm
	rank int
	kind proto.Kind
	meta proto.Req

	buf  *mem.Buffer // primary buffer (bcast buf / sbuf / in)
	buf2 *mem.Buffer // secondary buffer (rbuf / out)
	off  int
	n    int // payload bytes (block bytes for the v-collectives)
	dt   mpi.Datatype
	op   mpi.Op

	done    bool
	waiters []reqWaiter
	next    *Request // freelist link
}

// reqWaiter is a proc suspended in Wait, with the token that arms its wake.
type reqWaiter struct {
	p     *sim.Proc
	token uint64
}

// nbRank is one rank's non-blocking lane. All fields are plain: the
// simulation is cooperative, and the issue-order gate below guarantees the
// app proc and the helper proc never race on them.
type nbRank struct {
	queue   []*Request
	head    int
	active  bool // a helper proc is draining the queue
	pending int  // issued but not completed
	seq     uint64
	free    *Request
}

// nbGated reports whether rank currently has outstanding requests, in
// which case a blocking collective must be diverted through the queue to
// preserve issue order behind them.
func (c *Comm) nbGated(rank int) bool { return c.nb[rank].pending > 0 }

// getReq pops a recycled request (or allocates one) for rank.
func (c *Comm) getReq(rank int) *Request {
	lane := &c.nb[rank]
	r := lane.free
	if r == nil {
		return &Request{c: c, rank: rank}
	}
	lane.free = r.next
	r.next = nil
	return r
}

// release returns a consumed request to its lane's freelist.
func (c *Comm) release(r *Request) {
	lane := &c.nb[r.rank]
	r.buf, r.buf2 = nil, nil
	r.waiters = r.waiters[:0]
	r.done = false
	r.meta = proto.Req{}
	r.next = lane.free
	lane.free = r
}

// buildReq fills a recycled request with one call's arguments.
func (c *Comm) buildReq(rank int, kind proto.Kind, buf, buf2 *mem.Buffer, off, n, root int, dt mpi.Datatype, op mpi.Op) *Request {
	r := c.getReq(rank)
	r.kind, r.buf, r.buf2 = kind, buf, buf2
	r.off, r.n = off, n
	r.dt, r.op = dt, op
	r.meta.Root, r.meta.Bytes = root, int64(n)
	return r
}

// issue appends r to the caller's lane and ensures a helper is draining
// it. The helper is spawned with Engine.Go, which schedules it after the
// events already pending at the current timestamp — so a burst of
// back-to-back issues queues entirely before the helper's first step, and
// the fusion window naturally sees the whole burst.
func (c *Comm) issue(p *env.Proc, r *Request) *Request {
	lane := &c.nb[p.Rank]
	lane.pending++
	c.inflightCur++
	r.meta.Issue(c.rec, c.obsClock, c.inflightCur)
	lane.queue = append(lane.queue, r)
	if !lane.active {
		lane.active = true
		rank := p.Rank
		c.W.Sys.Eng.Go(fmt.Sprintf("xhc.nb.r%d", rank), func(sp *sim.Proc) {
			c.nbHelper(&env.Proc{S: sp, W: c.W, Rank: rank, Core: c.W.Core(rank)})
		})
	}
	return r
}

// issueBlocking routes a blocking collective through the request queue —
// the path a blocking call takes while non-blocking requests are
// outstanding. Diverted calls are never fusable: a rank with an empty lane
// runs the same op inline with the blocking protocol, and protocol choice
// must stay rank-uniform.
func (c *Comm) issueBlocking(p *env.Proc, r *Request) {
	c.issue(p, r).Wait(p)
}

// Ibcast starts a non-blocking broadcast of buf[off:off+n] from root.
func (c *Comm) Ibcast(p *env.Proc, buf *mem.Buffer, off, n, root int) *Request {
	sizeCheck(buf, off, n)
	r := c.buildReq(p.Rank, proto.Bcast, buf, nil, off, n, root, 0, 0)
	r.meta.Fuse = proto.Fusable(n, c.fuseMax)
	return c.issue(p, r)
}

// Iallreduce starts a non-blocking allreduce of sbuf into rbuf.
func (c *Comm) Iallreduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op) *Request {
	sizeCheck(sbuf, 0, n)
	return c.issue(p, c.buildReq(p.Rank, proto.Allreduce, sbuf, rbuf, 0, n, 0, dt, op))
}

// Ireduce starts a non-blocking reduce of sbuf into root's rbuf.
func (c *Comm) Ireduce(p *env.Proc, sbuf, rbuf *mem.Buffer, n int, dt mpi.Datatype, op mpi.Op, root int) *Request {
	sizeCheck(sbuf, 0, n)
	return c.issue(p, c.buildReq(p.Rank, proto.Reduce, sbuf, rbuf, 0, n, root, dt, op))
}

// Ibarrier starts a non-blocking barrier.
func (c *Comm) Ibarrier(p *env.Proc) *Request {
	return c.issue(p, c.buildReq(p.Rank, proto.Barrier, nil, nil, 0, 0, 0, 0, 0))
}

// Iallgather starts a non-blocking allgather of blockLen-byte blocks.
func (c *Comm) Iallgather(p *env.Proc, in, out *mem.Buffer, blockLen int) *Request {
	sizeCheck(in, 0, blockLen)
	sizeCheck(out, 0, blockLen*c.W.N)
	return c.issue(p, c.buildReq(p.Rank, proto.Allgather, in, out, 0, blockLen, 0, 0, 0))
}

// Iscatter starts a non-blocking scatter of blockLen-byte blocks from
// root's buf into each rank's out.
func (c *Comm) Iscatter(p *env.Proc, buf, out *mem.Buffer, blockLen, root int) *Request {
	sizeCheck(out, 0, blockLen)
	return c.issue(p, c.buildReq(p.Rank, proto.Scatter, buf, out, 0, blockLen, root, 0, 0))
}

// InFlight returns the number of currently outstanding requests on the
// communicator (all ranks).
func (c *Comm) InFlight() int64 { return c.inflightCur }

// Done reports completion without consuming the request.
func (r *Request) Done() bool { return r.done }

// Test polls the request once, advancing virtual time just enough for
// helper processes to make progress. On true the request is consumed.
func (r *Request) Test(p *env.Proc) bool {
	if !r.done {
		p.S.Sleep(testPoll)
	}
	if !r.done {
		return false
	}
	r.c.release(r)
	return true
}

// Wait blocks the calling proc until the request completes, then consumes
// it. The loop guards against stale wakeups addressed to a previous
// suspension of the same proc.
func (r *Request) Wait(p *env.Proc) {
	for !r.done {
		r.waiters = append(r.waiters, reqWaiter{p: p.S, token: p.S.NextSuspendToken()})
		p.S.Suspend("xhc: request wait")
	}
	r.c.release(r)
}

// Waitall waits for every non-nil request, in order.
func Waitall(p *env.Proc, rs ...*Request) {
	for _, r := range rs {
		if r != nil {
			r.Wait(p)
		}
	}
}

// nbHelper is the per-rank progress process: it drains the lane in issue
// order, popping maximal fusable prefixes into one fused traversal and
// executing everything else through the normal blocking bodies. It exits
// when the queue runs dry; the next issue respawns it.
func (c *Comm) nbHelper(p *env.Proc) {
	lane := &c.nb[p.Rank]
	var batch [proto.MaxFuseBatch]*Request
	for {
		if lane.head == len(lane.queue) {
			lane.queue = lane.queue[:0]
			lane.head = 0
			lane.active = false
			return
		}
		r := lane.queue[lane.head]
		r.meta.StampService(c.obsClock)
		if !r.meta.Fuse {
			lane.head++
			if !c.chaos().EarlyComplete {
				c.execReq(p, r)
			}
			c.completeReq(r)
			continue
		}
		k := 0
		for lane.head < len(lane.queue) && k < proto.MaxFuseBatch {
			nx := lane.queue[lane.head]
			if !nx.meta.Join(&r.meta, c.rec, p.Rank) {
				break
			}
			batch[k] = nx
			k++
			lane.head++
		}
		c.fusedBcast(p, batch[:k])
		clear(batch[:k])
	}
}

// execReq runs a request's blocking body on the helper proc.
func (c *Comm) execReq(p *env.Proc, r *Request) {
	switch r.kind {
	case proto.Bcast:
		c.bcast(p, r.buf, r.off, r.n, r.meta.Root)
	case proto.Allreduce:
		c.allreduce(p, r.buf, r.buf2, r.n, r.dt, r.op, true, 0)
	case proto.Reduce:
		c.allreduce(p, r.buf, r.buf2, r.n, r.dt, r.op, false, r.meta.Root)
	case proto.Barrier:
		c.barrier(p)
	case proto.Allgather:
		c.allgather(p, r.buf, r.buf2, r.n)
	case proto.Scatter:
		c.scatter(p, r.buf, r.buf2, r.n, r.meta.Root)
	case proto.Gather:
		c.gather(p, r.buf, r.buf2, r.n, r.meta.Root)
	default:
		panic(fmt.Sprintf("core: unknown request kind %d", r.kind))
	}
}

// completeReq publishes a request's completion: records its span, marks it
// done, wakes its waiters and releases the lane's pending gate. The gate
// is released last so pending==0 proves the helper performs no further
// shared-state activity for this request.
func (c *Comm) completeReq(r *Request) {
	if c.chaos().LostProgress {
		// Mutation: drop the completion on the floor — the body ran, but
		// Test never reports done and Wait suspends forever.
		return
	}
	lane := &c.nb[r.rank]
	lane.seq++
	r.meta.Record(c.rec, c.Trace, c.obsClock, r.rank, c.W.Core(r.rank), lane.seq)
	r.done = true
	if len(r.waiters) > 0 {
		eng := c.W.Sys.Eng
		now := eng.Now()
		for _, w := range r.waiters {
			eng.Wake(w.p, w.token, now)
		}
		r.waiters = r.waiters[:0]
	}
	lane.pending--
	c.inflightCur--
}

// fuseStaging returns (lazily allocating) rank's fused-batch staging
// buffer. Only forwarding ranks of fused batches allocate one, so worlds
// that never fuse keep their memory footprint unchanged. The buffer is
// sized by the construction-time cap (fuseCap), not the live fuseMax: a
// tuner may lower FuseBytes and later raise it back, and a buffer sized
// at the low-water mark would overflow.
func (c *Comm) fuseStaging(rank int) *mem.Buffer {
	if c.fuseBuf[rank] == nil {
		c.fuseBuf[rank] = c.W.NewBufferAt(c.name("fuse.%d", rank), rank, proto.MaxFuseBatch*c.fuseCap)
	}
	return c.fuseBuf[rank]
}

// fusedBcast runs one hierarchy traversal carrying a batch of same-shape
// small broadcasts (all n bytes from the same root, k <= proto.MaxFuseBatch).
//
// The root stages the k payloads contiguously in its staging buffer,
// exposes it with fuseFirst = the batch's first op sequence, and announces
// the whole batch at once (ready advances by k*n, expSeq jumps to the
// batch-last sequence). Members serve sub-ops in rounds: wait until the
// parent's expSeq covers the next unserved op, re-read fuseFirst (the
// parent's own batching may be ragged against ours — it may have restaged
// between our rounds), copy each covered sub-op out at (q-fuseFirst)*n,
// restage and republish for their own groups, and ack incrementally.
// Incremental acks are what keep ragged batches deadlock-free: a parent
// whose batch ends mid-way through ours can retire it (its freeze guard
// waits on acks up to *its* last) and publish the rest. The trailing
// freeze guard — every forwarding rank waits for its members' acks to
// reach batch-last — pins the staging buffer and fuseFirst until no
// reader is left, which is what makes re-reading fuseFirst sound.
//
// All cumulative counters advance exactly as k blocking broadcasts would
// have advanced them, so fused and unfused ops interleave freely on one
// communicator.
func (c *Comm) fusedBcast(p *env.Proc, batch []*Request) {
	if c.chaos().EarlyComplete {
		// Mutation: complete the whole batch without moving a byte (and
		// without touching any counter — uniform across ranks, so nothing
		// hangs; byte-exactness sees the stale payloads).
		for _, r := range batch {
			c.completeReq(r)
		}
		return
	}
	k := len(batch)
	n := batch[0].n
	root := batch[0].meta.Root
	st := c.stateFor(root)
	view := st.views[p.Rank]
	first := view.opSeq + 1
	view.opSeq += uint64(k)
	last := view.opSeq
	if p.Rank == 0 {
		c.Ops += int64(k)
		if c.rec != nil {
			c.rec.CountFusedBatch(k, int64(k)*int64(n))
		}
	}
	kn := uint64(k) * uint64(n)
	pc := c.clocks.Begin(p.Rank, p.Core, obs.OpBcast, last, int64(kn), st.h.NLevels())
	lead := st.leadLevels(p.Rank)
	pl := st.pullLevel(p.Rank)

	var stg *mem.Buffer
	if len(lead) > 0 {
		stg = c.fuseStaging(p.Rank)
	}

	if p.Rank == root {
		if stg != nil {
			for i, r := range batch {
				p.Copy(stg, i*n, r.buf, r.off, n)
			}
			if c.chaos().CorruptStaged(stg.Data, k, n) {
				p.Dirty(stg)
			}
			pc.Mark(-1, obs.PhaseChunkCopy, int64(kn))
			for _, l := range lead {
				gs, _ := st.groupOf(l, p.Rank)
				gs.exposed = xpmem.Expose(stg)
				gs.exposedOff = 0
				gs.fuseFirst = first
				c.setReady(p, gs, view.cumBytes[l]+kn)
				gs.expSeq.Set(p.S, p.Core, last)
			}
			pc.Mark(-1, obs.PhaseExpose, 0)
		}
	} else {
		gs, _ := st.groupOf(pl, p.Rank)
		served := 0
		for served < k {
			e := gs.expSeq.WaitGE(p.S, p.Core, first+uint64(served))
			pc.MarkFrom(pl, obs.PhaseFlagWait, 0, c.W.Core(gs.leader))
			f := gs.fuseFirst
			src := c.caches[p.Rank].Attach(p.S, gs.exposed)
			soff := gs.exposedOff
			upTo := min(e, last)
			for q := first + uint64(served); q <= upTo; q++ {
				r := batch[q-first]
				p.Copy(r.buf, r.off, src, soff+int(q-f)*n, n)
				if stg != nil {
					p.Copy(stg, int(q-first)*n, r.buf, r.off, n)
				}
			}
			round := int(upTo-first) + 1 - served
			pc.Mark(pl, obs.PhaseChunkCopy, int64(round*n))
			c.caches[p.Rank].Release(p.S, gs.exposed)
			if stg != nil {
				done := uint64(int(upTo-first)+1) * uint64(n)
				for _, l := range lead {
					lgs, _ := st.groupOf(l, p.Rank)
					lgs.exposed = xpmem.Expose(stg)
					lgs.exposedOff = 0
					lgs.fuseFirst = first
					c.setReady(p, lgs, view.cumBytes[l]+done)
					lgs.expSeq.Set(p.S, p.Core, upTo)
				}
				pc.Mark(pl, obs.PhaseExpose, 0)
			}
			gs.acks[p.Rank].Set(p.S, p.Core, upTo)
			served = int(upTo-first) + 1
		}
		c.recordPull(gs.leader, p.Rank, k*n)
	}

	// Freeze guard: a forwarding rank (and the root) may not return — and
	// so may not restage for a later batch or run a later op — until every
	// member has drained this batch.
	for _, l := range lead {
		gs, _ := st.groupOf(l, p.Rank)
		var flags []*shm.Flag
		for _, m := range gs.g.Members {
			if m != p.Rank {
				flags = append(flags, gs.acks[m])
			}
		}
		shm.WaitAllGE(p.S, p.Core, flags, last)
	}
	pc.Mark(-1, obs.PhaseAck, 0)
	for l := range view.cumBytes {
		view.cumBytes[l] += kn
	}
	pc.Finish()
	for _, r := range batch {
		c.completeReq(r)
	}
}
