package des

import (
	"errors"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var order []string
	e.Schedule(3*time.Second, "c", func(*Engine) { order = append(order, "c") })
	e.Schedule(1*time.Second, "a", func(*Engine) { order = append(order, "a") })
	e.Schedule(2*time.Second, "b", func(*Engine) { order = append(order, "b") })

	if err := e.Run(0); err != nil {
		t.Fatalf("Run: %v", err)
	}
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 3*time.Second {
		t.Errorf("Now = %v, want 3s", e.Now())
	}
	if e.Processed() != 3 {
		t.Errorf("Processed = %d, want 3", e.Processed())
	}
}

func TestFIFOAtEqualTimes(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, "ev", func(*Engine) { order = append(order, i) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if !sort.IntsAreSorted(order) {
		t.Errorf("events at equal time not FIFO: %v", order)
	}
}

func TestPriorityTieBreak(t *testing.T) {
	e := NewEngine()
	var order []string
	e.SchedulePriority(time.Second, 5, "late", func(*Engine) { order = append(order, "late") })
	e.SchedulePriority(time.Second, -5, "early", func(*Engine) { order = append(order, "early") })
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Errorf("priority order = %v", order)
	}
}

func TestNestedScheduling(t *testing.T) {
	e := NewEngine()
	var times []time.Duration
	e.Schedule(time.Second, "outer", func(eng *Engine) {
		times = append(times, eng.Now())
		eng.Schedule(500*time.Millisecond, "inner", func(eng *Engine) {
			times = append(times, eng.Now())
		})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(times) != 2 || times[0] != time.Second || times[1] != 1500*time.Millisecond {
		t.Errorf("times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(time.Second, "x", func(*Engine) { fired = true })
	ev.Cancel()
	if !ev.Canceled() {
		t.Error("Canceled() = false after Cancel")
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired {
		t.Error("canceled event fired")
	}
}

func TestNegativeDelayClampedToNow(t *testing.T) {
	e := NewEngine()
	e.Schedule(2*time.Second, "advance", func(eng *Engine) {
		eng.Schedule(-5*time.Second, "past", func(eng *Engine) {
			if eng.Now() != 2*time.Second {
				t.Errorf("past event ran at %v, want clock unchanged at 2s", eng.Now())
			}
		})
	})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
}

func TestStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		i := i
		e.Schedule(time.Duration(i)*time.Second, "tick", func(eng *Engine) {
			count++
			if i == 3 {
				eng.Stop(nil)
			}
		})
	}
	err := e.Run(0)
	if !errors.Is(err, ErrStopped) {
		t.Errorf("Run = %v, want ErrStopped", err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
	if !e.Stopped() {
		t.Error("Stopped() = false")
	}
}

func TestStopWithError(t *testing.T) {
	e := NewEngine()
	sentinel := errors.New("mission failed")
	e.Schedule(time.Second, "fail", func(eng *Engine) { eng.Stop(sentinel) })
	if err := e.Run(0); !errors.Is(err, sentinel) {
		t.Errorf("Run = %v, want %v", err, sentinel)
	}
}

func TestHorizon(t *testing.T) {
	e := NewEngine()
	e.Horizon = 5 * time.Second
	var fired []time.Duration
	for i := 1; i <= 10; i++ {
		d := time.Duration(i) * time.Second
		e.Schedule(d, "tick", func(eng *Engine) { fired = append(fired, eng.Now()) })
	}
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(fired) != 5 {
		t.Errorf("fired %d events, want 5 (horizon)", len(fired))
	}
	if e.Now() > 5*time.Second {
		t.Errorf("clock %v exceeded horizon", e.Now())
	}
}

func TestEventBudget(t *testing.T) {
	e := NewEngine()
	// A self-perpetuating event chain.
	var tick func(*Engine)
	tick = func(eng *Engine) { eng.Schedule(time.Millisecond, "tick", tick) }
	e.Schedule(time.Millisecond, "tick", tick)
	if err := e.Run(100); err == nil {
		t.Error("expected budget-exhausted error")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	count := 0
	e.Every(time.Second, "tick", func(*Engine) { count++ })
	if err := e.RunUntil(10 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 10 {
		t.Errorf("count = %d, want 10", count)
	}
	if e.Now() != 10*time.Second {
		t.Errorf("Now = %v", e.Now())
	}
	// RunUntil with an empty-but-for-ticker queue continues correctly.
	if err := e.RunUntil(12 * time.Second); err != nil {
		t.Fatal(err)
	}
	if count != 12 {
		t.Errorf("count after second RunUntil = %d, want 12", count)
	}
}

func TestRunUntilAdvancesClockWithNoEventsBeforeTarget(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Hour, "far", func(*Engine) {})
	if err := e.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if e.Now() != time.Minute {
		t.Errorf("Now = %v, want 1m", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1", e.Pending())
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	count := 0
	var tk *Ticker
	tk = e.Every(time.Second, "tick", func(*Engine) {
		count++
		if count == 3 {
			tk.Stop()
		}
	})
	if tk.Period() != time.Second {
		t.Errorf("Period = %v", tk.Period())
	}
	if err := e.RunUntil(time.Minute); err != nil {
		t.Fatal(err)
	}
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestEveryPanicsOnNonPositivePeriod(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewEngine().Every(0, "bad", func(*Engine) {})
}

func TestScheduleNilCallbackPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewEngine().Schedule(time.Second, "bad", nil)
}

func TestTracer(t *testing.T) {
	e := NewEngine()
	var traced []string
	e.SetTracer(func(ev Event) { traced = append(traced, ev.Name) })
	e.Schedule(time.Second, "one", func(*Engine) {})
	e.Schedule(2*time.Second, "two", func(*Engine) {})
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(traced) != 2 || traced[0] != "one" || traced[1] != "two" {
		t.Errorf("traced = %v", traced)
	}
}

func TestSeconds(t *testing.T) {
	if Seconds(1.5) != 1500*time.Millisecond {
		t.Errorf("Seconds(1.5) = %v", Seconds(1.5))
	}
	if Seconds(-3) != 0 {
		t.Errorf("Seconds(-3) = %v", Seconds(-3))
	}
	if Seconds(math.Inf(1)) != time.Duration(math.MaxInt64) {
		t.Errorf("Seconds(inf) = %v", Seconds(math.Inf(1)))
	}
	if Seconds(1e300) != time.Duration(math.MaxInt64) {
		t.Errorf("Seconds(huge) should saturate")
	}
}

// Property: regardless of insertion order, events fire in non-decreasing time
// order and the clock ends at the max scheduled time.
func TestEventOrderProperty(t *testing.T) {
	f := func(delaysMs []uint16) bool {
		if len(delaysMs) == 0 {
			return true
		}
		e := NewEngine()
		var fired []time.Duration
		var maxAt time.Duration
		for _, d := range delaysMs {
			at := time.Duration(d) * time.Millisecond
			if at > maxAt {
				maxAt = at
			}
			e.Schedule(at, "ev", func(eng *Engine) { fired = append(fired, eng.Now()) })
		}
		if err := e.Run(0); err != nil {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return e.Now() == maxAt && len(fired) == len(delaysMs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRunUntilSkipsCanceledHeadWithoutOvershoot(t *testing.T) {
	e := NewEngine()
	e.Schedule(time.Second, "canceled", func(*Engine) { t.Error("canceled event ran") }).Cancel()
	late := false
	e.Schedule(5*time.Second, "late", func(*Engine) { late = true })
	if err := e.RunUntil(2 * time.Second); err != nil {
		t.Fatal(err)
	}
	if late {
		t.Error("RunUntil(2s) ran the event at 5s")
	}
	if e.Now() != 2*time.Second {
		t.Errorf("Now = %v, want 2s", e.Now())
	}
	if e.Pending() != 1 {
		t.Errorf("Pending = %d, want 1 (the 5s event)", e.Pending())
	}
}

func TestScheduleEventReusesCallerOwnedEvent(t *testing.T) {
	e := NewEngine()
	fired := 0
	var ev Event
	ev.Name = "reused"
	ev.Callback = func(eng *Engine) {
		if fired++; fired < 3 {
			eng.ScheduleEvent(&ev, time.Second)
		}
	}
	e.ScheduleEvent(&ev, time.Second)
	if err := e.Run(0); err != nil {
		t.Fatal(err)
	}
	if fired != 3 || e.Now() != 3*time.Second {
		t.Errorf("fired %d times, Now = %v; want 3 times, 3s", fired, e.Now())
	}

	e.ScheduleEvent(&ev, time.Second)
	defer func() {
		if recover() == nil {
			t.Error("queuing an already queued event should panic")
		}
	}()
	e.ScheduleEvent(&ev, time.Second)
}

// scheduler is the part of an event engine the randomized order test drives:
// the real Engine and refModel both implement it.
type scheduler interface {
	now() time.Duration
	at(t time.Duration, prio int, fn func()) (cancel func())
	every(period time.Duration, prio int, fn func(stop func())) (stop func())
	run(horizon time.Duration)
}

type engineScheduler struct{ e *Engine }

func (s engineScheduler) now() time.Duration { return s.e.Now() }

func (s engineScheduler) at(t time.Duration, prio int, fn func()) func() {
	return s.e.SchedulePriority(t, prio, "ev", func(*Engine) { fn() }).Cancel
}

func (s engineScheduler) every(period time.Duration, prio int, fn func(stop func())) func() {
	var tk *Ticker
	tk = s.e.EveryPriority(period, prio, "tick", func(*Engine) { fn(tk.Stop) })
	return tk.Stop
}

func (s engineScheduler) run(horizon time.Duration) {
	s.e.Horizon = horizon
	if err := s.e.Run(0); err != nil {
		panic(err)
	}
}

// refModel is the reference event order: at every step it sorts the live
// events on (At, priority, seq) and runs the first. Sequence numbers are taken
// where the engine takes them: at scheduling, and for a ticker after each
// firing.
type refModel struct {
	t   time.Duration
	seq uint64
	evs []*refEvent
}

type refEvent struct {
	at   time.Duration
	prio int
	seq  uint64
	fn   func()
	dead bool
}

func (m *refModel) now() time.Duration { return m.t }

func (m *refModel) at(t time.Duration, prio int, fn func()) func() {
	if t < m.t {
		t = m.t
	}
	ev := &refEvent{at: t, prio: prio, seq: m.seq, fn: fn}
	m.seq++
	m.evs = append(m.evs, ev)
	return func() { ev.dead = true }
}

func (m *refModel) every(period time.Duration, prio int, fn func(stop func())) func() {
	stopped := false
	var cancel func()
	stop := func() {
		stopped = true
		cancel()
	}
	var tick func()
	tick = func() {
		fn(stop)
		if !stopped {
			cancel = m.at(m.t+period, prio, tick)
		}
	}
	cancel = m.at(m.t+period, prio, tick)
	return stop
}

func (m *refModel) run(horizon time.Duration) {
	for {
		live := m.evs[:0]
		for _, ev := range m.evs {
			if !ev.dead {
				live = append(live, ev)
			}
		}
		m.evs = live
		if len(live) == 0 {
			return
		}
		sort.Slice(live, func(i, j int) bool {
			a, b := live[i], live[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.prio != b.prio {
				return a.prio < b.prio
			}
			return a.seq < b.seq
		})
		head := live[0]
		if horizon > 0 && head.at > horizon {
			return
		}
		head.dead = true
		m.t = head.at
		head.fn()
	}
}

// orderScript runs one randomized workload on s and returns the ids of the
// events in firing order: one-shot events over a few distinct times and
// priorities, so ties are common; tickers that stop themselves mid-fire;
// firings that schedule children (possibly at the same instant) or cancel a
// random event or ticker, possibly one that already fired. The run first
// stops at a horizon that leaves events queued past it, then continues
// without one.
func orderScript(seed int64, s scheduler) []int {
	rng := rand.New(rand.NewSource(seed))
	var fired []int
	var cancels []func()
	ids := 0
	react := func() {
		switch rng.Intn(5) {
		case 0:
			cancels[rng.Intn(len(cancels))]()
		case 1:
			id := ids
			ids++
			cancels = append(cancels, s.at(s.now()+time.Duration(rng.Intn(3))*time.Millisecond, rng.Intn(5)-2, func() {
				fired = append(fired, id)
			}))
		}
	}
	for i := 0; i < 300; i++ {
		id := ids
		ids++
		cancels = append(cancels, s.at(time.Duration(rng.Intn(40))*time.Millisecond, rng.Intn(5)-2, func() {
			fired = append(fired, id)
			react()
		}))
	}
	for i := 0; i < 4; i++ {
		id := ids
		ids++
		left := 1 + rng.Intn(30)
		cancels = append(cancels, s.every(time.Duration(1+rng.Intn(4))*time.Millisecond, rng.Intn(5)-2-10*(i%2), func(stop func()) {
			fired = append(fired, id)
			if left--; left == 0 {
				stop()
			}
			react()
		}))
	}
	for i := 0; i < 30; i++ {
		cancels[rng.Intn(len(cancels))]()
	}
	s.run(20 * time.Millisecond)
	fired = append(fired, -1) // marks where the horizon stopped the run
	s.run(0)
	return fired
}

// The typed heap must pop exactly the reference order: (At, priority, seq)
// is a strict total order, so any correct queue agrees on it.
func TestEventOrderMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		e := NewEngine()
		got := orderScript(seed, engineScheduler{e})
		ref := &refModel{}
		want := orderScript(seed, ref)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d firings, reference %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: firing %d is event %d, reference %d", seed, i, got[i], want[i])
			}
		}
		if got[len(got)-1] == -1 {
			t.Errorf("seed %d: no event was left queued past the horizon", seed)
		}
		if e.Now() != ref.now() {
			t.Errorf("seed %d: Now = %v, reference %v", seed, e.Now(), ref.now())
		}
	}
}

func TestTickerFiringDoesNotAllocate(t *testing.T) {
	e := NewEngine()
	n := 0
	e.Every(time.Millisecond, "tick", func(*Engine) { n++ })
	e.EveryPriority(time.Millisecond, -10, "physics", func(*Engine) { n++ })
	if allocs := testing.AllocsPerRun(100, func() { e.Step() }); allocs != 0 {
		t.Errorf("a ticker firing allocates %v times, want 0", allocs)
	}
	if n != 101 { // AllocsPerRun makes one warm-up call before its 100 runs
		t.Errorf("tickers fired %d times, want 101", n)
	}
}
