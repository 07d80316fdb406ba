package sim

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
)

// The process hand-off contract: what one switch between the engine and a
// process costs, what a panicking or Goexit-ing process does to the run,
// and that the processes of a failed or deadlocked run are released.

// TestProcHandoffZeroAllocs pins that a full round trip through the engine
// allocates nothing for each way a process blocks. A partner process keeps
// the engine switching between two coroutines.
func TestProcHandoffZeroAllocs(t *testing.T) {
	e := NewEngine()
	var sleep, yield, suspend float64
	done := false
	e.Go("measured", func(p *Proc) {
		sleep = testing.AllocsPerRun(200, func() { p.Sleep(1) })
		yield = testing.AllocsPerRun(200, p.YieldStep)
		suspend = testing.AllocsPerRun(200, func() {
			e.Wake(p, p.NextSuspendToken(), p.Now()+1)
			p.Suspend("self-wake")
		})
		done = true
	})
	e.Go("partner", func(p *Proc) {
		for !done {
			p.Sleep(1)
		}
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name   string
		allocs float64
	}{{"Sleep", sleep}, {"YieldStep", yield}, {"Suspend/Wake", suspend}} {
		if c.allocs != 0 {
			t.Errorf("%s round trip: %v allocs/op, want 0", c.name, c.allocs)
		}
	}
}

// TestProcPanicErrorText pins the error Run returns for a panicking
// process: its name, id and panic value, then the panicking process's own
// stack. The engine stops at the next event, so later events never fire.
func TestProcPanicErrorText(t *testing.T) {
	e := NewEngine()
	late := false
	e.Go("idle", func(p *Proc) {
		p.Sleep(10)
		late = true
	})
	e.Go("bomb", func(p *Proc) {
		p.Sleep(5)
		panic("boom")
	})
	err := e.Run()
	if err == nil {
		t.Fatal("Run returned nil for a panicking process")
	}
	msg := err.Error()
	if want := "sim: process bomb(#1) panicked: boom\n"; !strings.HasPrefix(msg, want) {
		t.Errorf("error text %q, want prefix %q", msg, want)
	}
	if !strings.Contains(msg, "TestProcPanicErrorText.func") {
		t.Errorf("error carries no stack of the panicking process:\n%s", msg)
	}
	if late || e.Now() != 5 {
		t.Errorf("engine ran on after the panic: now %d, later event fired %v", e.Now(), late)
	}
}

// TestProcGoexitEndsRunner pins what runtime.Goexit in a process does: the
// goroutine running the engine ends with it, and Run never returns. The
// processes still suspended can be released afterwards with Abandon.
func TestProcGoexitEndsRunner(t *testing.T) {
	e := NewEngine()
	quitter := e.Go("quitter", func(p *Proc) {
		p.Sleep(1)
		runtime.Goexit()
	})
	other := e.Go("other", func(p *Proc) { p.Sleep(5) })
	returned := false
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		e.Run()
		returned = true
	}()
	<-exited
	if returned {
		t.Fatal("Run returned after a process called runtime.Goexit")
	}
	if !quitter.Finished() || other.Finished() || e.Now() != 1 {
		t.Fatalf("after Goexit: quitter finished %v, other finished %v, now %d; want true, false, 1",
			quitter.Finished(), other.Finished(), e.Now())
	}
	e.Abandon()
	if !other.Finished() || e.Live() != 0 {
		t.Fatalf("Abandon left other finished=%v, live=%d", other.Finished(), e.Live())
	}
}

// TestAbandonedProcsReleased pins that a deadlocked or failed Run leaves no
// goroutine behind: every unfinished process, started or not, is unwound
// at its blocking call (its defers run, the code after the call does not)
// and its coroutine exits. The release itself is no failure: running the
// engine again returns the original outcome.
func TestAbandonedProcsReleased(t *testing.T) {
	const n = 20
	for _, c := range []struct {
		name string
		body func(i int, p *Proc)
		want string
	}{
		{"deadlock", func(i int, p *Proc) { p.Sleep(Duration(i)); p.Suspend("forever") }, "deadlock"},
		// The bomb is spawned first and panics at t=0, before the others
		// have started: they are released without ever running.
		{"panic", func(i int, p *Proc) {
			if i == 0 {
				panic("boom")
			}
			p.Suspend("forever")
		}, "panicked"},
	} {
		base := runtime.NumGoroutine()
		e := NewEngine()
		unwound, resumed := 0, 0
		for i := 0; i < n; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				defer func() { unwound++ }()
				c.body(i, p)
				resumed++
			})
		}
		err := e.Run()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Run error %v, want one containing %q", c.name, err, c.want)
		}
		again := e.Run()
		if c.name == "deadlock" && again != nil || c.name == "panic" && again != err {
			t.Errorf("%s: Run on the released engine returned %v", c.name, again)
		}
		if resumed != 0 {
			t.Errorf("%s: %d processes ran on past their blocking call", c.name, resumed)
		}
		if got := runtime.NumGoroutine(); got > base {
			t.Errorf("%s: %d goroutines after Run, %d before", c.name, got, base)
		}
		if e.Live() != 0 {
			t.Errorf("%s: %d processes still live", c.name, e.Live())
		}
		wantUnwound := n
		if c.name == "panic" {
			wantUnwound = 1 // only the bomb ever ran
		}
		if unwound != wantUnwound {
			t.Errorf("%s: %d process defers ran, want %d", c.name, unwound, wantUnwound)
		}
	}
}

// TestScheduleHashAcrossGOMAXPROCS pins that the executed schedule does not
// depend on the host: the same program, driven in phases from a fresh
// goroutine each time (as a sharded cluster's worker pool resumes a shard),
// fingerprints identically at GOMAXPROCS 1 and 2.
func TestScheduleHashAcrossGOMAXPROCS(t *testing.T) {
	run := func(procs int) uint64 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		e := NewEngine()
		e.SetTieBreaker(NewPCTTieBreaker(11, 8))
		e.EnableScheduleHash()
		type waiter struct {
			p   *Proc
			tok uint64
		}
		var parked []waiter
		for i := 0; i < 16; i++ {
			i := i
			e.Go(fmt.Sprintf("p%d", i), func(p *Proc) {
				for r := 0; r < 4; r++ {
					p.Sleep(Duration((i*7 + r*3) % 5))
					p.YieldStep()
					parked = append(parked, waiter{p, p.NextSuspendToken()})
					p.Suspend("phase")
				}
			})
		}
		for {
			var done bool
			var err error
			ran := make(chan struct{})
			go func() {
				defer close(ran)
				done, err = e.RunUntilBlocked()
			}()
			<-ran
			if err != nil {
				t.Fatal(err)
			}
			if done {
				return e.ScheduleHash()
			}
			for _, w := range parked {
				e.Wake(w.p, w.tok, e.Now()+1)
			}
			parked = parked[:0]
		}
	}
	if h1, h2 := run(1), run(2); h1 != h2 {
		t.Fatalf("schedule hash %x at GOMAXPROCS=1, %x at GOMAXPROCS=2", h1, h2)
	}
}

// BenchmarkProcHandoff measures one process step — a Sleep, through the
// event heap and back — with N processes taking turns. ns/step is the
// whole round trip: schedule, switch to the engine, pop, switch back.
func BenchmarkProcHandoff(b *testing.B) {
	for _, n := range []int{2, 160} {
		b.Run(fmt.Sprintf("procs-%d", n), func(b *testing.B) {
			steps := (b.N + n - 1) / n
			e := NewEngine()
			for i := 0; i < n; i++ {
				e.Go("p", func(p *Proc) {
					for s := 0; s < steps; s++ {
						p.Sleep(1)
					}
				})
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := e.Run(); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(steps*n), "ns/step")
		})
	}
}
