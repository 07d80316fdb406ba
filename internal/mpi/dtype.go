// Package mpi provides the MPI-like pieces the collective frameworks
// build on: datatypes, reduction operators, and a point-to-point transport
// with tag matching, eager and rendezvous protocols over a selectable
// single-copy mechanism (XPMEM, CMA, KNEM) or copy-in-copy-out.
package mpi

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Datatype enumerates the element types supported by reductions.
type Datatype int

// Supported datatypes.
const (
	Byte Datatype = iota
	Int32
	Int64
	Float32
	Float64
)

// Size returns the element size in bytes.
func (d Datatype) Size() int {
	switch d {
	case Byte:
		return 1
	case Int32, Float32:
		return 4
	case Int64, Float64:
		return 8
	}
	panic(fmt.Sprintf("mpi: unknown datatype %d", int(d)))
}

// String names the datatype.
func (d Datatype) String() string {
	switch d {
	case Byte:
		return "byte"
	case Int32:
		return "int32"
	case Int64:
		return "int64"
	case Float32:
		return "float32"
	case Float64:
		return "float64"
	}
	return fmt.Sprintf("Datatype(%d)", int(d))
}

// Op enumerates reduction operators.
type Op int

// Supported reduction operators.
const (
	Sum Op = iota
	Prod
	Min
	Max
)

// String names the operator.
func (o Op) String() string {
	switch o {
	case Sum:
		return "sum"
	case Prod:
		return "prod"
	case Min:
		return "min"
	case Max:
		return "max"
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// ReduceBytes applies dst[i] = dst[i] op src[i] elementwise over two
// equally sized byte slices interpreted as dt. Lengths must be equal and a
// multiple of the element size.
//
// Each datatype x op pair has its own loop, so the op is decided once per
// call rather than once per element. Integer sum and product wrap in the
// element width, integer min/max compare signed values (bytes unsigned),
// float32 folds in float64 and rounds back, and float min/max are
// math.Min/math.Max (NaN propagates, -0 orders below +0). dtype_test.go
// checks every pair bit for bit against a one-element-at-a-time
// definition.
func ReduceBytes(op Op, dt Datatype, dst, src []byte) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("mpi: reduce length mismatch %d != %d", len(dst), len(src)))
	}
	es := dt.Size()
	if len(dst)%es != 0 {
		panic(fmt.Sprintf("mpi: reduce length %d not a multiple of %s", len(dst), dt))
	}
	if op < Sum || op > Max {
		panic(fmt.Sprintf("mpi: unknown op %d", int(op)))
	}
	switch dt {
	case Byte:
		reduceByte(op, dst, src)
	case Int32:
		reduceInt32(op, dst, src)
	case Int64:
		reduceInt64(op, dst, src)
	case Float32:
		reduceFloat32(op, dst, src)
	case Float64:
		reduceFloat64(op, dst, src)
	}
}

func reduceByte(op Op, dst, src []byte) {
	src = src[:len(dst)]
	switch op {
	case Sum:
		for i := range dst {
			dst[i] += src[i]
		}
	case Prod:
		for i := range dst {
			dst[i] *= src[i]
		}
	case Min:
		for i := range dst {
			dst[i] = min(dst[i], src[i])
		}
	case Max:
		for i := range dst {
			dst[i] = max(dst[i], src[i])
		}
	}
}

func reduceInt32(op Op, dst, src []byte) {
	le := binary.LittleEndian
	switch op {
	case Sum:
		for i := 0; i+4 <= len(dst); i += 4 {
			le.PutUint32(dst[i:], le.Uint32(dst[i:])+le.Uint32(src[i:]))
		}
	case Prod:
		for i := 0; i+4 <= len(dst); i += 4 {
			le.PutUint32(dst[i:], le.Uint32(dst[i:])*le.Uint32(src[i:]))
		}
	case Min:
		for i := 0; i+4 <= len(dst); i += 4 {
			a, b := int32(le.Uint32(dst[i:])), int32(le.Uint32(src[i:]))
			le.PutUint32(dst[i:], uint32(min(a, b)))
		}
	case Max:
		for i := 0; i+4 <= len(dst); i += 4 {
			a, b := int32(le.Uint32(dst[i:])), int32(le.Uint32(src[i:]))
			le.PutUint32(dst[i:], uint32(max(a, b)))
		}
	}
}

func reduceInt64(op Op, dst, src []byte) {
	le := binary.LittleEndian
	switch op {
	case Sum:
		for i := 0; i+8 <= len(dst); i += 8 {
			le.PutUint64(dst[i:], le.Uint64(dst[i:])+le.Uint64(src[i:]))
		}
	case Prod:
		for i := 0; i+8 <= len(dst); i += 8 {
			le.PutUint64(dst[i:], le.Uint64(dst[i:])*le.Uint64(src[i:]))
		}
	case Min:
		for i := 0; i+8 <= len(dst); i += 8 {
			a, b := int64(le.Uint64(dst[i:])), int64(le.Uint64(src[i:]))
			le.PutUint64(dst[i:], uint64(min(a, b)))
		}
	case Max:
		for i := 0; i+8 <= len(dst); i += 8 {
			a, b := int64(le.Uint64(dst[i:])), int64(le.Uint64(src[i:]))
			le.PutUint64(dst[i:], uint64(max(a, b)))
		}
	}
}

func reduceFloat32(op Op, dst, src []byte) {
	le := binary.LittleEndian
	ld := func(b []byte) float64 { return float64(math.Float32frombits(le.Uint32(b))) }
	st := func(b []byte, v float64) { le.PutUint32(b, math.Float32bits(float32(v))) }
	switch op {
	case Sum:
		for i := 0; i+4 <= len(dst); i += 4 {
			st(dst[i:], ld(dst[i:])+ld(src[i:]))
		}
	case Prod:
		for i := 0; i+4 <= len(dst); i += 4 {
			st(dst[i:], ld(dst[i:])*ld(src[i:]))
		}
	case Min:
		for i := 0; i+4 <= len(dst); i += 4 {
			st(dst[i:], math.Min(ld(dst[i:]), ld(src[i:])))
		}
	case Max:
		for i := 0; i+4 <= len(dst); i += 4 {
			st(dst[i:], math.Max(ld(dst[i:]), ld(src[i:])))
		}
	}
}

func reduceFloat64(op Op, dst, src []byte) {
	le := binary.LittleEndian
	ld := func(b []byte) float64 { return math.Float64frombits(le.Uint64(b)) }
	st := func(b []byte, v float64) { le.PutUint64(b, math.Float64bits(v)) }
	switch op {
	case Sum:
		for i := 0; i+8 <= len(dst); i += 8 {
			st(dst[i:], ld(dst[i:])+ld(src[i:]))
		}
	case Prod:
		for i := 0; i+8 <= len(dst); i += 8 {
			st(dst[i:], ld(dst[i:])*ld(src[i:]))
		}
	case Min:
		for i := 0; i+8 <= len(dst); i += 8 {
			st(dst[i:], math.Min(ld(dst[i:]), ld(src[i:])))
		}
	case Max:
		for i := 0; i+8 <= len(dst); i += 8 {
			st(dst[i:], math.Max(ld(dst[i:]), ld(src[i:])))
		}
	}
}

// EncodeFloat64s packs values into buf (for tests and applications).
func EncodeFloat64s(buf []byte, vals []float64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(v))
	}
}

// DecodeFloat64s unpacks len(out) values from buf.
func DecodeFloat64s(buf []byte, out []float64) {
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(buf[i*8:]))
	}
}

// EncodeInt64s packs values into buf.
func EncodeInt64s(buf []byte, vals []int64) {
	for i, v := range vals {
		binary.LittleEndian.PutUint64(buf[i*8:], uint64(v))
	}
}

// DecodeInt64s unpacks len(out) values from buf.
func DecodeInt64s(buf []byte, out []int64) {
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(buf[i*8:]))
	}
}
