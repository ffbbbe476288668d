package ros

import (
	"testing"
	"time"

	"mavbench/internal/des"
)

func costOnly(d time.Duration, kernel string) Handler {
	return func(now time.Duration, msg Message) CallbackResult {
		return CallbackResult{Cost: d, Kernel: kernel}
	}
}

func TestPubSubDelivery(t *testing.T) {
	eng := des.NewEngine()
	g := NewGraph(eng, 4)

	var received []int
	sub := g.Node("subscriber")
	sub.Subscribe("numbers", 10, func(now time.Duration, msg Message) CallbackResult {
		received = append(received, msg.(int))
		return CallbackResult{Cost: time.Millisecond, Kernel: "k"}
	})

	pub := g.Node("publisher")
	publish := pub.Publisher("numbers")
	eng.Schedule(0, "pub", func(*des.Engine) {
		for i := 0; i < 5; i++ {
			publish(i)
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if len(received) != 5 {
		t.Fatalf("received %d messages, want 5", len(received))
	}
	for i, v := range received {
		if v != i {
			t.Errorf("message %d = %d (out of order?)", i, v)
		}
	}
	if g.Topic("numbers").Published() != 5 {
		t.Errorf("Published = %d", g.Topic("numbers").Published())
	}
	if g.Topic("numbers").Subscribers() != 1 {
		t.Errorf("Subscribers = %d", g.Topic("numbers").Subscribers())
	}
}

func TestCoreLimitedExecution(t *testing.T) {
	// Two single-core graphs vs one dual-core graph: four 100 ms jobs take
	// 400 ms on one core and 200 ms on two.
	run := func(cores int) time.Duration {
		eng := des.NewEngine()
		g := NewGraph(eng, cores)
		n := g.Node("worker")
		n.Subscribe("work", 16, costOnly(100*time.Millisecond, "heavy"))
		pub := g.Node("source").Publisher("work")
		eng.Schedule(0, "pub", func(*des.Engine) {
			for i := 0; i < 4; i++ {
				pub(i)
			}
		})
		if err := eng.Run(0); err != nil {
			t.Fatal(err)
		}
		return eng.Now()
	}

	oneCore := run(1)
	if oneCore != 400*time.Millisecond {
		t.Errorf("1 core: finished at %v, want 400ms", oneCore)
	}
	// A single subscription processes sequentially regardless of cores (it is
	// one callback chain), so use distinct subscribers for parallelism.
	eng := des.NewEngine()
	g := NewGraph(eng, 2)
	for i := 0; i < 4; i++ {
		name := string(rune('a' + i))
		g.Node("worker-"+name).Subscribe("work-"+name, 4, costOnly(100*time.Millisecond, "heavy"))
	}
	eng.Schedule(0, "pub", func(*des.Engine) {
		for i := 0; i < 4; i++ {
			name := string(rune('a' + i))
			g.Topic("work-" + name).Publish(i)
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 200*time.Millisecond {
		t.Errorf("2 cores, 4 independent jobs: finished at %v, want 200ms", eng.Now())
	}
}

func TestSubscriptionIsSequentialPerSubscriber(t *testing.T) {
	// A single subscriber must process messages one at a time even on a
	// many-core executor (callbacks of one subscription don't run
	// concurrently in a single-threaded ROS spinner).
	eng := des.NewEngine()
	g := NewGraph(eng, 8)
	var done []time.Duration
	g.Node("n").Subscribe("t", 16, func(now time.Duration, msg Message) CallbackResult {
		return CallbackResult{Cost: 50 * time.Millisecond, Kernel: "k"}
	})
	// Track completion times through the executor's kernel observer.
	g.Executor().SetKernelObserver(func(kernel, node string, cost time.Duration, start, end time.Duration) {
		done = append(done, end)
	})
	eng.Schedule(0, "pub", func(*des.Engine) {
		for i := 0; i < 3; i++ {
			g.Topic("t").Publish(i)
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if eng.Now() != 150*time.Millisecond {
		t.Errorf("3 sequential 50ms callbacks should end at 150ms, got %v", eng.Now())
	}
	if len(done) != 3 {
		t.Errorf("observer saw %d jobs, want 3", len(done))
	}
}

func TestQueueOverflowDropsOldest(t *testing.T) {
	eng := des.NewEngine()
	g := NewGraph(eng, 1)
	var got []int
	g.Node("slow").Subscribe("t", 2, func(now time.Duration, msg Message) CallbackResult {
		got = append(got, msg.(int))
		return CallbackResult{Cost: time.Second, Kernel: "slow"}
	})
	eng.Schedule(0, "pub", func(*des.Engine) {
		for i := 0; i < 6; i++ {
			g.Topic("t").Publish(i)
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// Queue depth 2 = 1 in flight + 1 backlog slot; later publishes overwrite
	// the backlog, keeping the newest.
	if len(got) != 2 {
		t.Fatalf("processed %d messages, want 2 (rest dropped), got %v", len(got), got)
	}
	if got[0] != 0 {
		t.Errorf("first processed = %d, want 0", got[0])
	}
	if got[1] != 5 {
		t.Errorf("second processed = %d, want newest (5)", got[1])
	}
	if g.Topic("t").Dropped() == 0 {
		t.Error("expected dropped messages to be counted")
	}
}

func TestServiceCall(t *testing.T) {
	eng := des.NewEngine()
	g := NewGraph(eng, 2)
	server := g.Node("planner")
	server.ProvideService("plan", func(now time.Duration, req Message) (Message, CallbackResult) {
		return req.(int) * 2, CallbackResult{Cost: 200 * time.Millisecond, Kernel: "planning"}
	})

	var resp int
	var respAt time.Duration
	eng.Schedule(0, "call", func(*des.Engine) {
		err := g.CallService("plan", 21, func(m Message) {
			resp = m.(int)
			respAt = eng.Now()
		})
		if err != nil {
			t.Errorf("CallService: %v", err)
		}
	})
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if resp != 42 {
		t.Errorf("response = %d, want 42", resp)
	}
	if respAt != 200*time.Millisecond {
		t.Errorf("response arrived at %v, want 200ms", respAt)
	}
	if g.Service("plan").Calls() != 1 {
		t.Errorf("Calls = %d", g.Service("plan").Calls())
	}
	if g.Service("plan").Name() != "plan" {
		t.Errorf("Name = %q", g.Service("plan").Name())
	}
}

func TestCallUnknownService(t *testing.T) {
	g := NewGraph(des.NewEngine(), 1)
	if err := g.CallService("nope", nil, nil); err == nil {
		t.Error("expected error for unknown service")
	}
	if g.Service("nope") != nil {
		t.Error("Service should return nil for unknown name")
	}
}

func TestNodeIntrospection(t *testing.T) {
	g := NewGraph(des.NewEngine(), 2)
	n := g.Node("camera")
	n.Publisher("images")
	n.Subscribe("trigger", 1, costOnly(0, ""))
	n.ProvideService("calibrate", func(now time.Duration, req Message) (Message, CallbackResult) {
		return nil, CallbackResult{}
	})

	if got := n.Name(); got != "camera" {
		t.Errorf("Name = %q", got)
	}
	if got := n.Publications(); len(got) != 1 || got[0] != "images" {
		t.Errorf("Publications = %v", got)
	}
	if got := n.Subscriptions(); len(got) != 1 || got[0] != "trigger" {
		t.Errorf("Subscriptions = %v", got)
	}
	if got := n.Services(); len(got) != 1 || got[0] != "calibrate" {
		t.Errorf("Services = %v", got)
	}
	// Node() returns the same instance for the same name.
	if g.Node("camera") != n {
		t.Error("Node should be idempotent")
	}
	nodes := g.Nodes()
	if len(nodes) != 1 || nodes[0] != "camera" {
		t.Errorf("Nodes = %v", nodes)
	}
	if g.Engine() == nil || g.Executor() == nil {
		t.Error("accessors returned nil")
	}
}

func TestExecutorAccounting(t *testing.T) {
	eng := des.NewEngine()
	ex := NewExecutor(eng, 2)
	if ex.Cores() != 2 {
		t.Errorf("Cores = %d", ex.Cores())
	}
	for i := 0; i < 3; i++ {
		ex.Submit("node-a", func(now time.Duration) CallbackResult {
			return CallbackResult{Cost: 100 * time.Millisecond, Kernel: "alpha"}
		}, nil)
	}
	ex.Submit("node-b", func(now time.Duration) CallbackResult {
		return CallbackResult{Cost: 50 * time.Millisecond, Kernel: "beta"}
	}, nil)

	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if ex.JobsRun() != 4 {
		t.Errorf("JobsRun = %d", ex.JobsRun())
	}
	if got := ex.KernelTotals()["alpha"]; got != 300*time.Millisecond {
		t.Errorf("alpha total = %v", got)
	}
	if got := ex.KernelCounts()["alpha"]; got != 3 {
		t.Errorf("alpha count = %d", got)
	}
	if got := ex.KernelMean("alpha"); got != 100*time.Millisecond {
		t.Errorf("alpha mean = %v", got)
	}
	if got := ex.KernelMean("gamma"); got != 0 {
		t.Errorf("missing kernel mean = %v", got)
	}
	if got := ex.NodeTotals()["node-b"]; got != 50*time.Millisecond {
		t.Errorf("node-b total = %v", got)
	}
	names := ex.KernelNames()
	if len(names) != 2 || names[0] != "alpha" || names[1] != "beta" {
		t.Errorf("KernelNames = %v", names)
	}
	if ex.BusyCoreSeconds() <= 0 {
		t.Error("BusyCoreSeconds should be positive")
	}
	// 4 jobs, 0.35 core-seconds total on 2 cores over 0.2 s of virtual time.
	if u := ex.Utilization(eng.Now()); u <= 0 || u > 1 {
		t.Errorf("Utilization = %v", u)
	}
	if ex.Utilization(0) != 0 {
		t.Error("Utilization with zero elapsed should be 0")
	}
	if maxQ := ex.MaxQueueLength(); maxQ < 1 {
		t.Errorf("MaxQueueLength = %d, want >= 1 (4 jobs on 2 cores)", maxQ)
	}
	if ex.TotalQueueWait() <= 0 {
		t.Error("TotalQueueWait should be positive when jobs queued")
	}
}

func TestExecutorZeroCostJob(t *testing.T) {
	eng := des.NewEngine()
	ex := NewExecutor(eng, 1)
	ran := false
	ex.Submit("n", func(now time.Duration) CallbackResult {
		ran = true
		return CallbackResult{Cost: -time.Second, Kernel: ""}
	}, nil)
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Error("job did not run")
	}
	if ex.BusyCoreSeconds() != 0 {
		t.Errorf("negative cost should be clamped to zero, busy=%v", ex.BusyCoreSeconds())
	}
	if eng.Now() != 0 {
		t.Errorf("zero-cost job should not advance time, now=%v", eng.Now())
	}
}

func TestExecutorClampsCores(t *testing.T) {
	ex := NewExecutor(des.NewEngine(), 0)
	if ex.Cores() != 1 {
		t.Errorf("Cores = %d, want 1", ex.Cores())
	}
}

func TestSubmitNilWorkPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewExecutor(des.NewEngine(), 1).Submit("n", nil, nil)
}

func TestSubscribeNilHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g := NewGraph(des.NewEngine(), 1)
	g.Node("n").Subscribe("t", 1, nil)
}

func TestProvideNilServicePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	g := NewGraph(des.NewEngine(), 1)
	g.Node("n").ProvideService("s", nil)
}

func TestPipelineLatencyAcrossStages(t *testing.T) {
	// perception -> planning -> control, each 100 ms on a single core.
	eng := des.NewEngine()
	g := NewGraph(eng, 1)

	var controlDone time.Duration
	g.Node("perception").Subscribe("sensor", 4, func(now time.Duration, msg Message) CallbackResult {
		g.Topic("percept").Publish(msg)
		return CallbackResult{Cost: 100 * time.Millisecond, Kernel: "perception"}
	})
	g.Node("planning").Subscribe("percept", 4, func(now time.Duration, msg Message) CallbackResult {
		g.Topic("plan").Publish(msg)
		return CallbackResult{Cost: 100 * time.Millisecond, Kernel: "planning"}
	})
	g.Node("control").Subscribe("plan", 4, func(now time.Duration, msg Message) CallbackResult {
		controlDone = eng.Now() + 100*time.Millisecond
		return CallbackResult{Cost: 100 * time.Millisecond, Kernel: "control"}
	})

	eng.Schedule(0, "sense", func(*des.Engine) { g.Topic("sensor").Publish("frame") })
	if err := eng.Run(0); err != nil {
		t.Fatal(err)
	}
	// Note: a stage's downstream publish happens when its callback starts
	// (the work function runs immediately) but downstream processing still
	// has to wait for a free core, so total latency is still 3x100ms.
	if controlDone != 300*time.Millisecond {
		t.Errorf("end-to-end latency = %v, want 300ms", controlDone)
	}
}

// A steady-state Submit → job-done cycle reuses a pooled job and its event,
// so it allocates nothing beyond the work closure the caller builds.
func TestExecutorSubmitCycleAllocatesOnlyTheWork(t *testing.T) {
	eng := des.NewEngine()
	ex := NewExecutor(eng, 1)
	work := func(time.Duration) CallbackResult { return CallbackResult{Cost: time.Millisecond, Kernel: "k"} }
	done := 0
	onDone := func() { done++ }
	// Two jobs on one core: the second waits in the queue until the first's
	// job-done event starts it.
	cycle := func() {
		ex.Submit("node", work, onDone)
		ex.Submit("node", work, onDone)
		eng.Step()
		eng.Step()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Errorf("a Submit/job-done cycle with a reused work func allocates %v times, want 0", allocs)
	}
	cost := time.Millisecond
	fresh := func() {
		ex.Submit("node", func(time.Duration) CallbackResult { return CallbackResult{Cost: cost} }, nil)
		eng.Step()
	}
	if allocs := testing.AllocsPerRun(100, fresh); allocs > 1 {
		t.Errorf("a Submit/job-done cycle allocates %v times, want at most 1 (the work closure)", allocs)
	}
	if done != 202 || ex.JobsRun() != 303 || ex.QueueLength() != 0 {
		t.Errorf("onDone ran %d times, %d jobs run, queue %d; want 202, 303, 0", done, ex.JobsRun(), ex.QueueLength())
	}
}
