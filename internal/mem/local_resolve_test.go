package mem

import (
	"math"
	"math/rand/v2"
	"testing"

	"xhc/internal/topo"
)

// Ops of the FuzzLocalResolve byte program. The first byte picks the
// platform; after it, a departure takes two bytes (opDepart, which active
// flow) and an arrival five (opArrive, core, source, destination, cap):
//   - source NUMA node, or NNUMA for a cached read through the LLC/SLC port;
//   - destination NUMA node, or NNUMA for a write absorbed by the cache;
//   - cap kind: none, the distance stream cap, or the kernel copy cap.
//
// A copy whose source and destination are the core's own NUMA node crosses
// that memory controller twice.
const (
	opDepart = iota
	opArrive
)

// fuzzPath builds an arrival's resource path and rate cap the way
// readPath and appendWriteResources compose them.
func fuzzPath(s *System, core, src, dst, capKind int) ([]*resource, float64) {
	t, p := s.Topo, &s.Params
	core %= t.NCores
	src %= t.NNUMA + 1
	dst %= t.NNUMA + 1
	rn := t.NUMA(core)
	remote := func(res []*resource, home int) []*resource {
		if home != rn {
			res = append(res, s.numaPort[home], s.numaPort[rn])
			if t.NUMASocket(home) != t.Socket(core) {
				res = append(res, s.xsLink)
			}
		}
		return res
	}
	var res []*resource
	stream := p.StreamBW[topo.IntraNUMA]
	if src == t.NNUMA {
		if len(s.llcPort) > 0 {
			res = append(res, s.llcPort[t.LLC(core)])
		} else {
			res = append(res, s.slcPort[t.Socket(core)])
		}
		res = append(res, s.coreRes[core])
	} else {
		res = append(res, s.memRes[src], s.coreRes[core])
		res = remote(res, src)
		if src != rn {
			stream = p.StreamBW[topo.CrossNUMA]
		}
	}
	if dst < t.NNUMA {
		res = append(res, s.memRes[dst])
		res = remote(res, dst)
	}
	switch capKind % 3 {
	case 1:
		return res, stream
	case 2:
		return res, p.KernelCopyBW
	}
	return res, 0
}

// Bounds that keep a fuzz execution fast: the checks after every step are
// linear in the active flows, and the simulated platforms never carry more
// than one flow per core.
const (
	maxProgram = 2048
	maxActive  = 256
)

// runLocalResolve interprets a FuzzLocalResolve program and, after every
// step, checks the per-resource flow lists and every active flow's rate
// against a from-scratch solve of its own component.
func runLocalResolve(t *testing.T, prog []byte) {
	if len(prog) == 0 {
		return
	}
	prog = prog[:min(len(prog), maxProgram)]
	tp := topo.ArmN1()
	if prog[0]%2 == 1 {
		tp = topo.Epyc2P()
	}
	s := Default(tp)
	var o oracle
	for i := 1; i < len(prog); {
		switch {
		case prog[i]%2 == opDepart && i+1 < len(prog):
			if len(s.active) > 0 {
				s.endFlow(s.active[int(prog[i+1])%len(s.active)])
			}
			i += 2
		case prog[i]%2 == opArrive && i+4 < len(prog):
			if len(s.active) < maxActive {
				res, cap := fuzzPath(s, int(prog[i+1]), int(prog[i+2]), int(prog[i+3]), int(prog[i+4]))
				s.startFlow(nil, res, 1<<20, cap)
			}
			i += 5
		default:
			return
		}
		if err := listMismatch(s); err != nil {
			t.Fatalf("step at byte %d: %v", i, err)
		}
		if err := o.componentMismatch(s); err != nil {
			t.Fatalf("step at byte %d: %v", i, err)
		}
	}
}

// arrive and depart encode FuzzLocalResolve ops for the seed corpus.
func arrive(core, src, dst, capKind int) []byte {
	return []byte{opArrive, byte(core), byte(src), byte(dst), byte(capKind)}
}

func depart(which int) []byte { return []byte{opDepart, byte(which)} }

func program(platform byte, ops ...[]byte) []byte {
	prog := []byte{platform}
	for _, op := range ops {
		prog = append(prog, op...)
	}
	return prog
}

// randomProgram is a seeded mix of arrivals and departures that keeps
// tens of flows active.
func randomProgram(platform byte, seed uint64, steps int) []byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	prog := []byte{platform}
	active := 0
	for i := 0; i < steps; i++ {
		if active > 0 && rng.IntN(100) < 40 {
			prog = append(prog, depart(rng.IntN(256))...)
			active--
			continue
		}
		prog = append(prog, arrive(rng.IntN(256), rng.IntN(256), rng.IntN(256), rng.IntN(3))...)
		active++
	}
	return prog
}

// FuzzLocalResolve drives random arrival/departure sequences over the
// ARM-N1 and Epyc-2P memory systems and checks, after every step, that
// each active flow's rate equals a from-scratch solve of its own component
// bit for bit. Both platforms have 8 NUMA nodes (ARM-N1: 20 cores each,
// Epyc-2P: 8), so a source or destination byte of 8 means "cached".
func FuzzLocalResolve(f *testing.F) {
	const arm, epyc = 0, 1
	// Lone flows: cache-resident reads on distinct cores, then departures.
	f.Add(program(arm, arrive(0, 8, 8, 0), arrive(40, 8, 8, 0), arrive(100, 8, 8, 1),
		depart(1), arrive(41, 8, 8, 2), depart(0), depart(0)))
	// A local copy crossing its memory controller twice, alone and then
	// joined by a reader of the same controller.
	f.Add(program(arm, arrive(0, 0, 0, 0), arrive(1, 0, 8, 0), arrive(2, 0, 0, 1),
		depart(0), depart(0)))
	f.Add(program(epyc, arrive(0, 0, 0, 0), arrive(8, 1, 1, 0), arrive(1, 0, 0, 2), depart(2)))
	// Rate caps: kernel and stream caps against a shared controller.
	f.Add(program(arm, arrive(0, 0, 8, 2), arrive(1, 0, 8, 1), arrive(2, 0, 8, 0),
		arrive(3, 0, 8, 2), depart(1), arrive(4, 0, 1, 2)))
	// A departure that splits a component: NUMA 0 and NUMA 1 groups joined
	// by one cross-NUMA copy, which then leaves.
	f.Add(program(arm, arrive(0, 0, 8, 0), arrive(1, 0, 8, 0), arrive(20, 1, 8, 0),
		arrive(21, 1, 8, 0), arrive(2, 0, 1, 0), depart(4), arrive(3, 0, 8, 0), depart(0)))
	// The same split across sockets on Epyc-2P (ports and the socket link).
	f.Add(program(epyc, arrive(0, 0, 8, 0), arrive(1, 0, 8, 1), arrive(32, 4, 8, 0),
		arrive(33, 4, 8, 0), arrive(2, 0, 4, 0), depart(4), depart(0)))
	// Long random mixes on both platforms.
	f.Add(randomProgram(arm, 1, 400))
	f.Add(randomProgram(epyc, 2, 400))
	f.Add(randomProgram(arm, 3, 400))
	f.Fuzz(runLocalResolve)
}

// TestLoneFlowFastPathMatchesLoop pins the premise that lets a flow alone
// in its component take the lone-flow fast path while other components
// are active: the fast path's rate equals what the freeze loop gives the
// same flow next to a disjoint companion (how the whole-set solve rated
// it). The two differ only if a flow crosses a resource twice and half
// that capacity is its tightest limit; on every platform's parameters the
// core's streaming limit or the flow's cap binds first. Every core,
// source, destination and cap kind of fuzzPath is checked.
func TestLoneFlowFastPathMatchesLoop(t *testing.T) {
	for _, tp := range topo.Platforms() {
		s := Default(tp)
		var o oracle
		for core := 0; core < tp.NCores; core++ {
			companion := &flow{id: 2}
			companion.res = append(companion.resArr[:0], s.coreRes[(core+1)%tp.NCores])
			for src := 0; src <= tp.NNUMA; src++ {
				for dst := 0; dst <= tp.NNUMA; dst++ {
					for capKind := 0; capKind < 3; capKind++ {
						res, cap := fuzzPath(s, core, src, dst, capKind)
						f := &flow{id: 1, rateCap: cap}
						f.res = append(f.resArr[:0], res...)
						fast := o.solve(s, []*flow{f})[0].rate
						loop := o.solve(s, []*flow{f, companion})[0].rate
						if math.Float64bits(fast) != math.Float64bits(loop) {
							t.Fatalf("%s core %d src %d dst %d cap %d: fast path %v, freeze loop %v",
								tp.Name, core, src, dst, capKind, fast, loop)
						}
					}
				}
			}
		}
	}
}
