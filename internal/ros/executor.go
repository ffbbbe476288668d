package ros

import (
	"sort"
	"time"

	"mavbench/internal/des"
)

// Executor runs submitted jobs on a fixed number of virtual cores. A job's
// work function executes immediately when a core is free (this is a
// functional simulation — the Go code runs instantly), but the virtual time
// it reports as its cost occupies that core until the cost has elapsed on the
// DES clock. Jobs submitted while all cores are busy wait in a FIFO queue,
// which is exactly how a saturated companion computer delays a MAVBench
// pipeline stage.
type Executor struct {
	engine *des.Engine
	cores  int

	busy  int
	queue []*job
	free  []*job // finished jobs, reused by Submit

	// doneNames caches each node's job-done event name.
	doneNames map[string]string

	// accounting
	busyCoreSeconds float64
	kernelTotals    map[string]time.Duration
	kernelCounts    map[string]uint64
	nodeTotals      map[string]time.Duration
	jobsRun         uint64
	maxQueueLen     int
	waitTotal       time.Duration

	// onKernel, when set, is invoked for every completed job with its kernel
	// attribution. The telemetry recorder hooks in here.
	onKernel func(kernel, node string, cost time.Duration, start, end time.Duration)
}

// A job is pooled: it owns its job-done event, whose callback is bound once
// when the job is first allocated, and returns to the executor's free list
// when that event fires.
type job struct {
	exec        *Executor
	node        string
	work        func(now time.Duration) CallbackResult
	onDone      func()
	submittedAt time.Duration
	done        des.Event
}

// finish runs when the job's cost has elapsed: it frees the core and the
// job, then runs the job's continuation and starts queued work.
func (j *job) finish(*des.Engine) {
	e, onDone := j.exec, j.onDone
	j.work, j.onDone = nil, nil
	e.free = append(e.free, j)
	e.busy--
	if onDone != nil {
		onDone()
	}
	e.drain()
}

// NewExecutor builds an executor with the given core count scheduled on
// engine. Core counts below 1 are clamped to 1.
func NewExecutor(engine *des.Engine, cores int) *Executor {
	if cores < 1 {
		cores = 1
	}
	return &Executor{
		engine:       engine,
		cores:        cores,
		kernelTotals: map[string]time.Duration{},
		kernelCounts: map[string]uint64{},
		nodeTotals:   map[string]time.Duration{},
		doneNames:    map[string]string{},
	}
}

// Cores returns the number of virtual cores.
func (e *Executor) Cores() int { return e.cores }

// Busy returns the number of cores currently occupied.
func (e *Executor) Busy() int { return e.busy }

// QueueLength returns the number of jobs waiting for a core.
func (e *Executor) QueueLength() int { return len(e.queue) }

// JobsRun returns the number of jobs completed so far.
func (e *Executor) JobsRun() uint64 { return e.jobsRun }

// BusyCoreSeconds returns the total core-seconds of compute charged so far.
func (e *Executor) BusyCoreSeconds() float64 { return e.busyCoreSeconds }

// MaxQueueLength returns the largest backlog observed.
func (e *Executor) MaxQueueLength() int { return e.maxQueueLen }

// TotalQueueWait returns the cumulative time jobs spent waiting for a core.
func (e *Executor) TotalQueueWait() time.Duration { return e.waitTotal }

// SetKernelObserver installs a hook invoked once per completed job with the
// job's kernel attribution, node, cost and execution interval.
func (e *Executor) SetKernelObserver(fn func(kernel, node string, cost time.Duration, start, end time.Duration)) {
	e.onKernel = fn
}

// KernelTotals returns a copy of the accumulated per-kernel compute time.
func (e *Executor) KernelTotals() map[string]time.Duration {
	out := make(map[string]time.Duration, len(e.kernelTotals))
	for k, v := range e.kernelTotals {
		out[k] = v
	}
	return out
}

// KernelCounts returns a copy of the per-kernel invocation counts.
func (e *Executor) KernelCounts() map[string]uint64 {
	out := make(map[string]uint64, len(e.kernelCounts))
	for k, v := range e.kernelCounts {
		out[k] = v
	}
	return out
}

// KernelMean returns the mean cost of the named kernel, or zero when it never
// ran.
func (e *Executor) KernelMean(kernel string) time.Duration {
	n := e.kernelCounts[kernel]
	if n == 0 {
		return 0
	}
	return e.kernelTotals[kernel] / time.Duration(n)
}

// NodeTotals returns a copy of the accumulated per-node compute time.
func (e *Executor) NodeTotals() map[string]time.Duration {
	out := make(map[string]time.Duration, len(e.nodeTotals))
	for k, v := range e.nodeTotals {
		out[k] = v
	}
	return out
}

// KernelNames returns the kernels that have executed, sorted.
func (e *Executor) KernelNames() []string {
	names := make([]string, 0, len(e.kernelTotals))
	for k := range e.kernelTotals {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// Utilization returns average core utilization over the elapsed virtual time.
func (e *Executor) Utilization(elapsed time.Duration) float64 {
	if elapsed <= 0 {
		return 0
	}
	u := e.busyCoreSeconds / (elapsed.Seconds() * float64(e.cores))
	if u > 1 {
		u = 1
	}
	return u
}

// Submit schedules work on the executor. onDone, if non-nil, runs after the
// job's cost has elapsed (in virtual time). Work runs as soon as a core is
// free.
func (e *Executor) Submit(node string, work func(now time.Duration) CallbackResult, onDone func()) {
	if work == nil {
		panic("ros: Submit with nil work")
	}
	var j *job
	if n := len(e.free); n > 0 {
		j = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		j = &job{exec: e}
		j.done.Callback = j.finish
	}
	j.node, j.work, j.onDone, j.submittedAt = node, work, onDone, e.engine.Now()
	if e.busy >= e.cores {
		e.queue = append(e.queue, j)
		if len(e.queue) > e.maxQueueLen {
			e.maxQueueLen = len(e.queue)
		}
		return
	}
	e.start(j)
}

func (e *Executor) start(j *job) {
	e.busy++
	now := e.engine.Now()
	e.waitTotal += now - j.submittedAt

	res := j.work(now)
	cost := res.Cost
	if cost < 0 {
		cost = 0
	}
	e.busyCoreSeconds += cost.Seconds()
	e.jobsRun++
	if res.Kernel != "" {
		e.kernelTotals[res.Kernel] += cost
		e.kernelCounts[res.Kernel]++
	}
	e.nodeTotals[j.node] += cost
	if e.onKernel != nil {
		e.onKernel(res.Kernel, j.node, cost, now, now+cost)
	}

	name, ok := e.doneNames[j.node]
	if !ok {
		name = "ros/job-done:" + j.node
		e.doneNames[j.node] = name
	}
	j.done.Name = name
	e.engine.ScheduleEvent(&j.done, cost)
}

func (e *Executor) drain() {
	for e.busy < e.cores && len(e.queue) > 0 {
		next := e.queue[0]
		n := copy(e.queue, e.queue[1:])
		e.queue[n] = nil
		e.queue = e.queue[:n]
		e.start(next)
	}
}
