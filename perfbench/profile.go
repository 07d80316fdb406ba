package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/pprof"
	"strings"
)

// selfFracLayers are the attribution classes of a CPU profile sample,
// reported as self_frac.<layer>: the share of all samples charged there.
var selfFracLayers = []string{
	"sim", "handoff", "mem_solver", "mem", "mpi", "core", "baselines",
	"gxhc", "shm", "env", "obs", "gc", "bench", "other",
}

// cpuProfile is a running CPU profile captured in memory.
type cpuProfile struct{ buf bytes.Buffer }

// profileHz is the CPU sampling rate: five times pprof's default, so a
// ten-second pass yields enough samples to resolve a few-percent layer.
const profileHz = 500

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	runtime.SetCPUProfileRate(profileHz) // StartCPUProfile keeps this rate (and says so on stderr)
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, fmt.Errorf("start cpu profile: %w", err)
	}
	return p, nil
}

// stop ends the profile and returns the self_frac.* shares.
func (p *cpuProfile) stop() (map[string]float64, error) {
	pprof.StopCPUProfile()
	counts, err := attribute(p.buf.Bytes())
	if err != nil {
		return nil, err
	}
	var total float64
	for _, v := range counts {
		total += v
	}
	if total == 0 {
		return nil, errors.New("cpu profile has no samples")
	}
	out := make(map[string]float64, len(selfFracLayers))
	for _, l := range selfFracLayers {
		out["self_frac."+l] = counts[l] / total
	}
	return out, nil
}

// frame is one (possibly inlined) function on a sample's stack.
type frame struct{ fn, file string }

// classify charges one stack (innermost frame first) to a layer:
//   - a GC worker anywhere on the stack, or a GC leaf, is gc;
//   - a runtime leaf that parks, wakes, schedules or blocks on a channel
//     or futex is handoff (the simulator's process hand-off, gxhc's
//     parking waiter and yields);
//   - otherwise the package of the innermost frame in this module: xhc/
//     packages by name (functions of internal/mem/solver.go are
//     mem_solver), this benchmark's own code is bench;
//   - anything else is other.
func classify(stack []frame) string {
	if len(stack) == 0 {
		return "other"
	}
	for _, f := range stack {
		if gcRoots[f.fn] {
			return "gc"
		}
	}
	leaf := stack[0].fn
	if isRuntime(leaf) {
		for _, p := range gcLeafPrefixes {
			if strings.HasPrefix(leaf, p) {
				return "gc"
			}
		}
		for _, s := range handoffLeaves {
			if strings.Contains(leaf, s) {
				return "handoff"
			}
		}
	}
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f.fn, "main."):
			return "bench"
		case strings.HasPrefix(f.fn, "xhc/internal/"):
			pkg := strings.TrimPrefix(f.fn, "xhc/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if pkg == "mem" && strings.HasSuffix(f.file, "internal/mem/solver.go") {
				return "mem_solver"
			}
			for _, l := range selfFracLayers {
				if l == pkg {
					return pkg
				}
			}
			return "other"
		}
	}
	return "other"
}

func isRuntime(fn string) bool {
	return strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") ||
		strings.HasPrefix(fn, "runtime/internal/") || strings.HasPrefix(fn, "sync.runtime_")
}

var gcRoots = map[string]bool{
	"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true, "runtime.bgsweep": true,
	"runtime.bgscavenge": true, "runtime.gcStart": true, "runtime.markroot": true,
	"runtime.gcDrain": true, "runtime.gcMarkDone": true, "runtime.gcMarkTermination": true,
}

var gcLeafPrefixes = []string{
	"runtime.gc", "runtime.scanobject", "runtime.greyobject", "runtime.findObject",
	"runtime.(*gcWork)", "runtime.(*gcBits)", "runtime.(*mspan).sweep", "runtime.sweepone",
	"runtime.scanblock", "runtime.scanstack", "runtime.wbBuf", "runtime.bulkBarrier",
	"runtime.markBits", "runtime.(*mheap).freeSpan",
}

var handoffLeaves = []string{
	"park", "chanrecv", "chansend", "futex", "schedule", "findRunnable", "ready",
	"casgstatus", "mcall", "gogo", "semasleep", "semawakeup", "notesleep", "notewakeup",
	"wakep", "startm", "stopm", "runqget", "runqput", "runqgrab", "runqsteal", "stealWork",
	"netpoll", "selectgo", "lock2", "unlock2", "osyield", "usleep", "procyield",
	"goschedImpl", "Gosched", "execute", "resetspinning", "send", "recv",
}

// attribute decodes a gzipped pprof CPU profile and sums each sample's
// CPU time per layer. It reads only the fields it needs: samples,
// locations (with inlined lines), functions and the string table.
func attribute(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	type fnRec struct{ name, file int64 }
	var (
		samples []sample
		locs    = map[uint64][]uint64{} // location id -> function ids, innermost first
		fns     = map[uint64]fnRec{}
		strs    []string
	)
	err = walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s sample
			var vals []int64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendPacked(s.locs, v, b)
				case 2:
					for _, x := range appendPacked(nil, v, b) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if len(vals) > 0 {
				s.value = vals[len(vals)-1] // CPU nanoseconds
			}
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fnIDs []uint64
			err := walk(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fnIDs = append(fnIDs, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fnIDs
			return err
		case 5: // function
			var id uint64
			var r fnRec
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					r.name = int64(v)
				case 4:
					r.file = int64(v)
				}
				return nil
			})
			fns[id] = r
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	str := func(i int64) string {
		if i >= 0 && i < int64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	out := map[string]float64{}
	var stack []frame
	for _, s := range samples {
		stack = stack[:0]
		for _, l := range s.locs {
			for _, fid := range locs[l] {
				f := fns[fid]
				stack = append(stack, frame{str(f.name), str(f.file)})
			}
		}
		out[classify(stack)] += float64(s.value)
	}
	return out, nil
}

// walk iterates the protobuf fields of b, calling fn with the field number
// and either the varint value or the length-delimited bytes.
func walk(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
	}
	return nil
}

// appendPacked appends a repeated varint field given either one unpacked
// value (b == nil) or a packed run.
func appendPacked(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
