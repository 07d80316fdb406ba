package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// spinBarrier is a sense-reversing barrier for n goroutines that spins,
// then yields.
type spinBarrier struct {
	n     int32
	count atomic.Int32
	gen   atomic.Uint32
}

func (b *spinBarrier) wait() {
	g := b.gen.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.gen.Add(1)
		return
	}
	for i := 0; b.gen.Load() == g; i++ {
		if i > 100 {
			runtime.Gosched()
		}
	}
}

// naiveComm is the null model gxhc must beat: the shared-window allreduce
// of the hybrid MPI+MPI design (arXiv:2007.06892). Every rank exposes its
// source, reduces its own index slice of all sources into a shared
// accumulator (reduce-scatter), then copies the whole accumulator out
// (allgather). The next call's first barrier keeps its reduction from
// overwriting the accumulator while a slower rank is still copying it out.
type naiveComm struct {
	n   int
	src [][]float64
	acc []float64
	bar spinBarrier
}

func newNaive(n, elems int) *naiveComm {
	return &naiveComm{
		n:   n,
		src: make([][]float64, n),
		acc: make([]float64, elems),
		bar: spinBarrier{n: int32(n)},
	}
}

func (c *naiveComm) allreduce(rank int, dst, src []float64) {
	c.src[rank] = src
	c.bar.wait()
	lo, hi := rank*len(src)/c.n, (rank+1)*len(src)/c.n
	part := c.acc[lo:hi]
	copy(part, c.src[0][lo:hi])
	for j := 1; j < c.n; j++ {
		s := c.src[j][lo:hi]
		for i := range part {
			part[i] += s[i]
		}
	}
	c.bar.wait()
	copy(dst, c.acc)
}

const naiveIters = 400

// naiveAllreduceUS runs the null model on gxMix's 1 MiB allreduce buffers
// and returns its median latest-rank latency in µs and the number of failed
// ops (outputs checked after every op, outside the timed span).
func naiveAllreduceUS(x *gxMix) (float64, int64) {
	x.prepare()
	elems := arBigBytes / 8
	c := newNaive(x.n, elems)
	dur := make([][]int64, x.n)
	var bad atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < x.n; r++ {
		dur[r] = make([]int64, naiveIters)
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			src, dst := x.src[opARBig][r], x.dst[opARBig][r]
			for it := 0; it < naiveIters; it++ {
				src[0] = float64(stamp(it)) + x.h[r]
				t0 := time.Now()
				c.allreduce(r, dst, src)
				dur[r][it] = int64(time.Since(t0))
				if dst[0] != float64(x.n)*float64(stamp(it))+x.sumH || dst[elems-1] != float64(x.n)*x.g[opARBig][elems-1]+x.sumH {
					bad.Add(1)
				}
			}
		}(r)
	}
	wg.Wait()
	var lat []float64
	for it := naiveIters / 4; it < naiveIters; it++ { // first quarter is warmup
		var m int64
		for r := range dur {
			m = max(m, dur[r][it])
		}
		lat = append(lat, float64(m)/1e3)
	}
	return median(lat), bad.Load()
}

// roofline holds host copy and float64-add rates measured on one core at
// the gxhc-mix sizes, and the lower bounds they imply.
type roofline struct {
	copyGBps, addGBps float64
	// allreduceUS bounds a 1 MiB allreduce over n ranks working in
	// parallel: each reduces (n-1)/n of the bytes and copies (n-1)/n.
	allreduceUS float64
	// bcastUS bounds a 64 KiB bcast: each non-root copies the payload.
	bcastUS float64
}

func measureRoofline(n int) roofline {
	share := float64(n-1) / float64(n)
	big := rate(arBigBytes, func(d, s []float64) { copy(d, s) })
	add := rate(arBigBytes/n, func(d, s []float64) {
		for i := range d {
			d[i] += s[i]
		}
	})
	small := rate(bcastBytes, func(d, s []float64) { copy(d, s) })
	return roofline{
		copyGBps:    big / 1e9,
		addGBps:     add / 1e9,
		allreduceUS: (share*arBigBytes/add + share*arBigBytes/big) * 1e6,
		bcastUS:     bcastBytes / small * 1e6,
	}
}

// rate returns the bytes/s of f over a dst of size bytes, timed for about
// 50 ms after a warm pass.
func rate(size int, f func(d, s []float64)) float64 {
	d, s := make([]float64, size/8), make([]float64, size/8)
	for i := range s {
		s[i] = float64(i & 255)
	}
	f(d, s)
	var reps int
	t0 := time.Now()
	for time.Since(t0) < 50*time.Millisecond {
		f(d, s)
		reps++
	}
	return float64(size*reps) / time.Since(t0).Seconds()
}
