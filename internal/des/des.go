// Package des implements the discrete-event simulation engine that drives
// every MAVBench run.
//
// The original MAVBench (Boroujerdian et al., MICRO 2018, Section III)
// executes its benchmark applications in real time on a hardware-in-the-loop
// NVIDIA TX2 while AirSim/Unreal simulate the vehicle on a host PC
// (the paper's Figure 5 setup). This reproduction replaces wall-clock time
// with a deterministic
// virtual clock: everything that happens — physics integration steps, sensor
// publications, compute-kernel executions, actuation commands, battery
// updates — is an event on a single timeline. Compute cost is charged in
// virtual time on a core-limited executor (see package ros), so core-count
// and clock-frequency scaling studies are exact and runs are reproducible.
package des

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// Event is a scheduled callback. The callback runs exactly once at its
// scheduled virtual time, receiving the engine so it may schedule follow-up
// events.
type Event struct {
	At       time.Duration // virtual time at which the event fires
	Name     string        // label for tracing/debugging
	Callback func(*Engine)

	priority int // tie-break: lower fires first at equal time
	seq      uint64
	queued   bool
	canceled bool
}

// Cancel marks the event so that it will be skipped when its time arrives.
// Canceling an already-fired event has no effect.
func (e *Event) Cancel() { e.canceled = true }

// Canceled reports whether the event was canceled before firing.
func (e *Event) Canceled() bool { return e.canceled }

// before is the queue's strict total order: time, then priority, then
// scheduling sequence. Because it is total, every correct heap pops events in
// the same order.
func (e *Event) before(o *Event) bool {
	if e.At != o.At {
		return e.At < o.At
	}
	if e.priority != o.priority {
		return e.priority < o.priority
	}
	return e.seq < o.seq
}

// eventHeap is a binary min-heap of events ordered by before.
type eventHeap []*Event

func (h *eventHeap) push(ev *Event) {
	q := append(*h, ev)
	i := len(q) - 1
	for p := (i - 1) / 2; i > 0 && ev.before(q[p]); p = (i - 1) / 2 {
		q[i] = q[p]
		i = p
	}
	q[i] = ev
	*h = q
}

func (h *eventHeap) pop() *Event {
	q := *h
	head, n := q[0], len(q)-1
	last := q[n]
	q[n] = nil
	q = q[:n]
	i := 0
	for c := 1; c < n; c = 2*i + 1 {
		if c+1 < n && q[c+1].before(q[c]) {
			c++
		}
		if !q[c].before(last) {
			break
		}
		q[i] = q[c]
		i = c
	}
	if n > 0 {
		q[i] = last
	}
	*h = q
	head.queued = false
	return head
}

// ErrStopped is returned by Run when the simulation was stopped explicitly
// via Stop before the horizon or event exhaustion was reached.
var ErrStopped = errors.New("des: simulation stopped")

// Engine is a single-threaded discrete-event scheduler with a virtual clock.
// The zero value is not usable; construct engines with NewEngine.
type Engine struct {
	now     time.Duration
	queue   eventHeap
	seq     uint64
	stopped bool
	stopErr error

	// Horizon, when non-zero, bounds Run: the engine refuses to advance the
	// clock beyond it and Run returns once the next event would exceed it.
	Horizon time.Duration

	processed uint64
	tracer    func(Event)
}

// NewEngine returns an empty engine with the clock at zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current virtual time.
func (e *Engine) Now() time.Duration { return e.now }

// NowSeconds returns the current virtual time in seconds.
func (e *Engine) NowSeconds() float64 { return e.now.Seconds() }

// Processed returns the number of events executed so far.
func (e *Engine) Processed() uint64 { return e.processed }

// Pending returns the number of events currently scheduled (including
// canceled events that have not yet been discarded).
func (e *Engine) Pending() int { return len(e.queue) }

// SetTracer installs a hook invoked for every event just before it runs.
// Passing nil removes the tracer.
func (e *Engine) SetTracer(fn func(Event)) { e.tracer = fn }

// Schedule registers callback to run after delay (relative to the current
// virtual time). Negative delays are treated as zero. It returns the event so
// callers may cancel it.
func (e *Engine) Schedule(delay time.Duration, name string, callback func(*Engine)) *Event {
	if delay < 0 {
		delay = 0
	}
	return e.ScheduleAt(e.now+delay, name, callback)
}

// ScheduleAt registers callback to run at absolute virtual time at. Times in
// the past are clamped to the present.
func (e *Engine) ScheduleAt(at time.Duration, name string, callback func(*Engine)) *Event {
	return e.SchedulePriority(at, 0, name, callback)
}

// SchedulePriority is ScheduleAt with an explicit tie-break priority: among
// events with identical timestamps, lower priorities fire first.
func (e *Engine) SchedulePriority(at time.Duration, priority int, name string, callback func(*Engine)) *Event {
	ev := &Event{Name: name, Callback: callback, priority: priority}
	e.push(ev, at)
	return ev
}

// ScheduleEvent queues a caller-owned event to fire after delay, using its
// Name and Callback. It is Schedule without the allocation: a caller that
// owns ev may queue it again once it has fired. The engine itself never
// re-queues an event it did not create, so an *Event returned by Schedule is
// never reused behind its caller's back. ScheduleEvent panics if ev is still
// queued, as a canceled event is until its time arrives.
func (e *Engine) ScheduleEvent(ev *Event, delay time.Duration) {
	if delay < 0 {
		delay = 0
	}
	e.push(ev, e.now+delay)
}

// push queues ev at time at (clamped to the present) with the next sequence
// number.
func (e *Engine) push(ev *Event, at time.Duration) {
	if ev.Callback == nil {
		panic("des: Schedule with nil callback")
	}
	if ev.queued {
		panic("des: event " + ev.Name + " is already queued")
	}
	if at < e.now {
		at = e.now
	}
	ev.At, ev.seq, ev.queued, ev.canceled = at, e.seq, true, false
	e.seq++
	e.queue.push(ev)
}

// Every schedules callback to run periodically with the given period,
// starting one period from now, until the returned ticker is stopped or the
// engine stops. A period <= 0 panics.
func (e *Engine) Every(period time.Duration, name string, callback func(*Engine)) *Ticker {
	return e.EveryPriority(period, 0, name, callback)
}

// EveryPriority is Every with an explicit tie-break priority for each firing.
// The physics stepper uses a negative priority so that the world state is
// always updated before same-instant sensor or compute events observe it.
func (e *Engine) EveryPriority(period time.Duration, priority int, name string, callback func(*Engine)) *Ticker {
	if period <= 0 {
		panic(fmt.Sprintf("des: Every with non-positive period %v", period))
	}
	if callback == nil {
		panic("des: Every with nil callback")
	}
	t := &Ticker{period: period, callback: callback}
	t.ev = Event{Name: name, Callback: t.fire, priority: priority}
	e.push(&t.ev, e.now+period)
	return t
}

// Ticker repeatedly fires a callback at a fixed period. It owns one event,
// which it re-queues after each firing, so a running ticker does not
// allocate.
type Ticker struct {
	period   time.Duration
	callback func(*Engine)
	ev       Event
	stopped  bool
}

// Stop prevents any further firings of the ticker. A ticker may stop itself
// from inside its callback.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}

// Period returns the ticker's period.
func (t *Ticker) Period() time.Duration { return t.period }

func (t *Ticker) fire(e *Engine) {
	t.callback(e)
	if !t.stopped {
		e.push(&t.ev, e.now+t.period)
	}
}

// Stop halts the run loop after the current event completes. The given error
// (which may be nil) is recorded and surfaced by Run as its return value; a
// nil error is reported as ErrStopped.
func (e *Engine) Stop(err error) {
	e.stopped = true
	e.stopErr = err
}

// Stopped reports whether Stop has been called.
func (e *Engine) Stopped() bool { return e.stopped }

// stopResult is what Run and RunUntil return once the engine has stopped.
func (e *Engine) stopResult() error {
	if e.stopErr != nil {
		return e.stopErr
	}
	return ErrStopped
}

// head discards canceled events at the front of the queue and returns the
// next runnable event without removing it, or nil when none is queued.
func (e *Engine) head() *Event {
	for len(e.queue) > 0 {
		if ev := e.queue[0]; !ev.canceled {
			return ev
		}
		e.queue.pop()
	}
	return nil
}

// Step executes the single next pending event, advancing the clock to its
// timestamp. It returns false when no runnable event remains, the next one
// lies beyond the horizon (it stays queued), or the engine has been stopped.
func (e *Engine) Step() bool {
	if e.stopped {
		return false
	}
	ev := e.head()
	if ev == nil || (e.Horizon > 0 && ev.At > e.Horizon) {
		return false
	}
	e.queue.pop()
	e.now = ev.At
	if e.tracer != nil {
		e.tracer(*ev)
	}
	e.processed++
	ev.Callback(e)
	return true
}

// Run executes events until the queue is exhausted, the horizon is exceeded,
// the event budget maxEvents (0 = unlimited) is spent, or Stop is called.
// It returns nil on normal completion, ErrStopped (or the error passed to
// Stop) when stopped, and an error when the event budget is exhausted.
func (e *Engine) Run(maxEvents uint64) error {
	for n := uint64(0); ; n++ {
		if e.stopped {
			return e.stopResult()
		}
		if maxEvents > 0 && n >= maxEvents {
			return fmt.Errorf("des: event budget of %d exhausted at t=%v", maxEvents, e.now)
		}
		if !e.Step() && !e.stopped {
			return nil
		}
	}
}

// RunUntil runs the engine until the virtual clock reaches at least t, the
// queue empties, or the engine stops. It never runs an event later than t.
// The horizon, if set, still applies.
func (e *Engine) RunUntil(t time.Duration) error {
	for e.now < t {
		if e.stopped {
			return e.stopResult()
		}
		next := e.head()
		if next == nil {
			return nil
		}
		if next.At > t {
			e.now = t
			return nil
		}
		if !e.Step() {
			return nil
		}
	}
	return nil
}

// Seconds converts a floating-point number of seconds into a time.Duration,
// saturating instead of overflowing for absurdly large values.
func Seconds(s float64) time.Duration {
	if math.IsInf(s, 1) || s > math.MaxInt64/float64(time.Second) {
		return time.Duration(math.MaxInt64)
	}
	if s < 0 {
		return 0
	}
	return time.Duration(s * float64(time.Second))
}
