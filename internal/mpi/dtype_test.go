package mpi

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDatatypeSizes(t *testing.T) {
	cases := map[Datatype]int{Byte: 1, Int32: 4, Int64: 8, Float32: 4, Float64: 8}
	for dt, want := range cases {
		if dt.Size() != want {
			t.Errorf("%s.Size() = %d, want %d", dt, dt.Size(), want)
		}
	}
}

func TestReduceFloat64Sum(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{10, 20, 30}
	ab := make([]byte, 24)
	bb := make([]byte, 24)
	EncodeFloat64s(ab, a)
	EncodeFloat64s(bb, b)
	ReduceBytes(Sum, Float64, ab, bb)
	out := make([]float64, 3)
	DecodeFloat64s(ab, out)
	for i, want := range []float64{11, 22, 33} {
		if out[i] != want {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want)
		}
	}
}

func TestReduceOpsInt64(t *testing.T) {
	cases := []struct {
		op   Op
		a, b int64
		want int64
	}{
		{Sum, 3, 4, 7},
		{Prod, 3, 4, 12},
		{Min, 3, 4, 3},
		{Max, 3, 4, 4},
		{Min, -5, 2, -5},
		{Max, -5, 2, 2},
	}
	for _, c := range cases {
		ab := make([]byte, 8)
		bb := make([]byte, 8)
		EncodeInt64s(ab, []int64{c.a})
		EncodeInt64s(bb, []int64{c.b})
		ReduceBytes(c.op, Int64, ab, bb)
		out := make([]int64, 1)
		DecodeInt64s(ab, out)
		if out[0] != c.want {
			t.Errorf("%s(%d,%d) = %d, want %d", c.op, c.a, c.b, out[0], c.want)
		}
	}
}

func TestReduceInt32AndFloat32(t *testing.T) {
	a32 := []byte{1, 0, 0, 0, 255, 255, 255, 255} // [1, -1]
	b32 := []byte{2, 0, 0, 0, 2, 0, 0, 0}         // [2, 2]
	ReduceBytes(Sum, Int32, a32, b32)
	if a32[0] != 3 {
		t.Errorf("int32 sum first elem = %d", a32[0])
	}

	af := make([]byte, 8)
	bf := make([]byte, 8)
	be32 := func(buf []byte, i int, v float32) {
		bits := math.Float32bits(v)
		buf[i] = byte(bits)
		buf[i+1] = byte(bits >> 8)
		buf[i+2] = byte(bits >> 16)
		buf[i+3] = byte(bits >> 24)
	}
	be32(af, 0, 1.5)
	be32(af, 4, -2)
	be32(bf, 0, 2.5)
	be32(bf, 4, 7)
	ReduceBytes(Max, Float32, af, bf)
	got := math.Float32frombits(uint32(af[0]) | uint32(af[1])<<8 | uint32(af[2])<<16 | uint32(af[3])<<24)
	if got != 2.5 {
		t.Errorf("float32 max = %v, want 2.5", got)
	}
}

func TestReduceByte(t *testing.T) {
	a := []byte{1, 200}
	b := []byte{2, 100}
	ReduceBytes(Sum, Byte, a, b)
	if a[0] != 3 || a[1] != byte(300%256) {
		t.Errorf("byte sum = %v", a)
	}
}

func TestReduceMismatchPanics(t *testing.T) {
	for _, f := range []func(){
		func() { ReduceBytes(Sum, Float64, make([]byte, 8), make([]byte, 16)) },
		func() { ReduceBytes(Sum, Float64, make([]byte, 12), make([]byte, 12)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

// Property: sum-reduce is commutative and associative over int64 (exact
// arithmetic), matching a scalar reference.
func TestReduceProperty(t *testing.T) {
	f := func(xs, ys []int64) bool {
		n := len(xs)
		if len(ys) < n {
			n = len(ys)
		}
		if n == 0 {
			return true
		}
		xs, ys = xs[:n], ys[:n]
		ab := make([]byte, n*8)
		bb := make([]byte, n*8)
		EncodeInt64s(ab, xs)
		EncodeInt64s(bb, ys)
		ReduceBytes(Sum, Int64, ab, bb)
		out := make([]int64, n)
		DecodeInt64s(ab, out)
		for i := range out {
			if out[i] != xs[i]+ys[i] {
				return false
			}
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// reduceBytesScalar is the one-element-at-a-time definition of ReduceBytes
// (its implementation before the per-op loops): the oracle the typed
// kernels must match bit for bit.
func reduceBytesScalar(op Op, dt Datatype, dst, src []byte) {
	switch dt {
	case Byte:
		for i := range dst {
			dst[i] = byte(scalarI64(op, int64(dst[i]), int64(src[i])))
		}
	case Int32:
		for i := 0; i+4 <= len(dst); i += 4 {
			a := int32(binary.LittleEndian.Uint32(dst[i:]))
			b := int32(binary.LittleEndian.Uint32(src[i:]))
			binary.LittleEndian.PutUint32(dst[i:], uint32(int32(scalarI64(op, int64(a), int64(b)))))
		}
	case Int64:
		for i := 0; i+8 <= len(dst); i += 8 {
			a := int64(binary.LittleEndian.Uint64(dst[i:]))
			b := int64(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], uint64(scalarI64(op, a, b)))
		}
	case Float32:
		for i := 0; i+4 <= len(dst); i += 4 {
			a := math.Float32frombits(binary.LittleEndian.Uint32(dst[i:]))
			b := math.Float32frombits(binary.LittleEndian.Uint32(src[i:]))
			binary.LittleEndian.PutUint32(dst[i:], math.Float32bits(float32(scalarF64(op, float64(a), float64(b)))))
		}
	case Float64:
		for i := 0; i+8 <= len(dst); i += 8 {
			a := math.Float64frombits(binary.LittleEndian.Uint64(dst[i:]))
			b := math.Float64frombits(binary.LittleEndian.Uint64(src[i:]))
			binary.LittleEndian.PutUint64(dst[i:], math.Float64bits(scalarF64(op, a, b)))
		}
	}
}

func scalarI64(op Op, a, b int64) int64 {
	switch op {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Min:
		if b < a {
			return b
		}
		return a
	case Max:
		if b > a {
			return b
		}
		return a
	}
	panic("unknown op")
}

func scalarF64(op Op, a, b float64) float64 {
	switch op {
	case Sum:
		return a + b
	case Prod:
		return a * b
	case Min:
		return math.Min(a, b)
	case Max:
		return math.Max(a, b)
	}
	panic("unknown op")
}

// specialBits are element bit patterns mixed into the random operands:
// quiet and signalling NaNs of both signs, infinities, signed zeros,
// denormals and the integer extremes.
var specialBits = []uint64{
	0, 1 << 63, // +0, -0 (float64); 0, MinInt64
	0x7ff0000000000000, 0xfff0000000000000, // +-Inf
	0x7ff8000000000000, 0xfff8000000000001, 0x7ff0000000000001, // NaNs
	1, 0x8000000000000001, // smallest denormals
	math.MaxInt64, 1<<64 - 1, // MaxInt64, -1
	0x3ff0000000000000, 0xc000000000000000, // 1.0, -2.0
	0x7f800000, 0xff800000, 0x7fc00000, 0xffc00001, 0x7f800001, 0x80000000, // float32 specials
	0x7fffffff, 0xffffffff, 0xff, 0x80,
}

// TestReduceBytesMatchesScalar property-checks every datatype x op pair,
// for 0..257 elements, against the scalar definition, bit for bit. Half of
// the elements are drawn from specialBits (truncated to the element size).
func TestReduceBytesMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	fill := func(buf []byte, es int) {
		for i := 0; i+es <= len(buf); i += es {
			v := rng.Uint64()
			if rng.Intn(2) == 0 {
				v = specialBits[rng.Intn(len(specialBits))]
			}
			for k := 0; k < es; k++ {
				buf[i+k] = byte(v >> (8 * k))
			}
		}
	}
	for _, dt := range []Datatype{Byte, Int32, Int64, Float32, Float64} {
		for _, op := range []Op{Sum, Prod, Min, Max} {
			es := dt.Size()
			for n := 0; n <= 257; n++ {
				dst, src := make([]byte, n*es), make([]byte, n*es)
				fill(dst, es)
				fill(src, es)
				want := append([]byte(nil), dst...)
				reduceBytesScalar(op, dt, want, src)
				ReduceBytes(op, dt, dst, src)
				if !bytes.Equal(dst, want) {
					t.Fatalf("%s %s, %d elements: typed kernel differs from the scalar definition", dt, op, n)
				}
			}
		}
	}
}

func TestReduceUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for an unknown op")
		}
	}()
	ReduceBytes(Op(9), Float64, make([]byte, 8), make([]byte, 8))
}

// BenchmarkReduceBytes compares the typed kernel with the scalar
// definition on a 64 KiB float64 sum, the allreduce hot path.
func BenchmarkReduceBytes(b *testing.B) {
	for _, c := range []struct {
		name string
		fn   func(Op, Datatype, []byte, []byte)
	}{{"typed", ReduceBytes}, {"scalar", reduceBytesScalar}} {
		b.Run(fmt.Sprintf("%s/float64-sum-64KiB", c.name), func(b *testing.B) {
			dst, src := make([]byte, 64<<10), make([]byte, 64<<10)
			b.SetBytes(int64(len(dst)))
			for i := 0; i < b.N; i++ {
				c.fn(Sum, Float64, dst, src)
			}
		})
	}
}
