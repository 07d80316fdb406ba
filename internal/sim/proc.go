//go:build go1.23

// The go1.23 constraint raises this file's language version above the
// module's go 1.22 so it may use package iter (coroutines via iter.Pull).

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
)

// Proc is a simulated process. Its function runs as a coroutine (iter.Pull)
// and only while the engine has handed it control; every blocking method
// returns control to the engine. A hand-off in either direction is a
// direct coroutine switch that never passes through the Go scheduler's run
// queue.
//
// A process function that calls runtime.Goexit ends the goroutine that
// resumed it (the one running the engine), because iter.Pull propagates
// Goexit to its caller.
type Proc struct {
	ID   int
	Name string

	eng    *Engine
	next   func() (struct{}, bool) // resumes the coroutine; set by Engine.Go
	stop   func()                  // unwinds a suspended coroutine (Abandon)
	yield  func(struct{}) bool     // the coroutine's way back to the engine
	stepFn func()                  // reusable e.step(p) closure, set by Engine.Go
	wakeFn func(uint64)            // reusable token-checked wake closure, set by Engine.Go

	finished   bool
	waitReason string
	waitUntil  Time // nonzero while sleeping: formatted lazily for reports
	// waitFmt/waitArg are the lazy form of waitReason: deadlock reports
	// render fmt.Sprintf(waitFmt, waitArg), so hot suspend paths never pay
	// for formatting (the same discipline Sleep follows with waitUntil).
	waitFmt string
	waitArg uint64

	// suspendToken invalidates stale wakeups: each Suspend call gets a new
	// token, and Wake calls carrying an old token are ignored.
	suspendToken uint64
	suspended    bool
}

// errStopped is the panic value yieldToEngine raises when the engine
// abandons a suspended process (Abandon): it unwinds the process function,
// running its defers, and run treats it as a clean exit. It points to a
// non-zero-size value, so no other allocation shares its address.
var errStopped = new(struct{ _ byte })

// start makes the process's coroutine; it first runs at the first next.
func (p *Proc) start(fn func(*Proc)) { p.next, p.stop = iter.Pull(p.run(fn)) }

// run returns the coroutine body wrapping the user function.
func (p *Proc) run(fn func(*Proc)) iter.Seq[struct{}] {
	return func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			if r := recover(); r != nil && r != errStopped {
				p.eng.fail(fmt.Errorf("sim: process %s(#%d) panicked: %v\n%s",
					p.Name, p.ID, r, debug.Stack()))
			}
			p.finished = true
		}()
		fn(p)
	}
}

// yieldToEngine suspends the coroutine until the engine resumes it.
func (p *Proc) yieldToEngine() {
	if !p.yield(struct{}{}) {
		panic(errStopped)
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Engine returns the engine this process runs under.
func (p *Proc) Engine() *Engine { return p.eng }

// Sleep advances this process's virtual time by d (elapsing simulated work
// or latency). Other processes run in the meantime.
func (p *Proc) Sleep(d Duration) {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative sleep %d", d))
	}
	// The reason is kept as a constant string plus a timestamp and only
	// formatted in deadlock reports: Sleep is the hottest path in the
	// simulator and must not allocate.
	p.waitReason = "sleeping"
	p.waitUntil = p.eng.now + d
	p.eng.At(p.eng.now+d, p.stepFn)
	p.yieldToEngine()
	p.waitReason = ""
	p.waitUntil = 0
}

// Until sleeps until absolute virtual time t (no-op if t <= Now).
func (p *Proc) Until(t Time) {
	if t <= p.eng.now {
		return
	}
	p.Sleep(t - p.eng.now)
}

// YieldStep reschedules the process behind all events already pending at
// the current timestamp, without advancing time.
func (p *Proc) YieldStep() {
	p.waitReason = "yield"
	p.eng.At(p.eng.now, p.stepFn)
	p.yieldToEngine()
	p.waitReason = ""
}

// Suspend parks the process indefinitely; some other party must call Wake.
// The reason string appears in deadlock reports. It returns a token that
// identifies this particular suspension.
func (p *Proc) Suspend(reason string) uint64 {
	p.suspendToken++
	p.suspended = true
	p.waitReason = reason
	tok := p.suspendToken
	p.yieldToEngine()
	p.suspended = false
	p.waitReason = ""
	return tok
}

// SuspendLazy parks the process like Suspend, but defers formatting the
// wait reason until a deadlock report actually needs it: the reason renders
// as fmt.Sprintf(format, arg). Use it on hot paths (the harness barrier
// every rank crosses twice per iteration) where a fmt.Sprintf per suspend
// would put allocation back into the measurement loop.
func (p *Proc) SuspendLazy(format string, arg uint64) uint64 {
	p.suspendToken++
	p.suspended = true
	p.waitFmt = format
	p.waitArg = arg
	tok := p.suspendToken
	p.yieldToEngine()
	p.suspended = false
	p.waitFmt = ""
	return tok
}

// NextSuspendToken returns the token that the process's *next* Suspend
// call will receive. A signaler may capture it before the process suspends
// (while the process still holds control) to arm a wake for precisely that
// suspension.
func (p *Proc) NextSuspendToken() uint64 { return p.suspendToken + 1 }

// Wake schedules p to resume at time t, if it is still in the suspension
// identified by token. Stale or duplicate wakeups are ignored, so several
// signalers may race to wake the same process. The token rides on the
// event itself (AtTag), so waking does not allocate a closure. An
// installed wake-jitter hook (fault injection) pushes the wakeup later.
func (e *Engine) Wake(p *Proc, token uint64, t Time) {
	if e.wakeJitter != nil {
		if d := e.wakeJitter(); d > 0 {
			t += d
		}
	}
	e.AtTag(t, token, p.wakeFn)
}

// Finished reports whether the process function has returned.
func (p *Proc) Finished() bool { return p.finished }
