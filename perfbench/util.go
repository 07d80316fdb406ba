package main

import (
	"math"
	"math/rand/v2"
	"sort"
	"strings"
)

// rngFor derives an independent deterministic stream from the run seed and
// a purpose/index pair, so inputs depend only on -seed.
func rngFor(seed uint64, purpose, index uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, purpose<<32^index))
}

// Stream purposes for rngFor.
const (
	purposeRoots = iota + 1
	purposeOrder
	purposeData
)

// The statistics below are the benchmark's own rather than internal/stats,
// so a change to the repository cannot change how the benchmark measures.

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	f := pos - float64(lo)
	return s[lo]*(1-f) + s[lo+1]*f
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func geomean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

func trim(b []byte) string { return strings.TrimSpace(string(b)) }

// fieldAfter returns the value of the first "key : value" line of text.
func fieldAfter(text, key string) string {
	for _, line := range strings.Split(text, "\n") {
		k, v, ok := strings.Cut(line, ":")
		if ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
