package sim

import (
	"testing"
	"time"

	"mavbench/internal/compute"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/ros"
)

func emptyWorldSim(t *testing.T, cfg Config) *Simulator {
	t.Helper()
	w := env.BoundedEmptyWorld(100, 40, 1)
	s, err := New(cfg, w, geom.V3(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(DefaultConfig(1), nil, geom.Vec3{}); err == nil {
		t.Error("nil world should fail")
	}
	// Zero-value config gets defaults filled.
	w := env.BoundedEmptyWorld(50, 30, 1)
	s, err := New(Config{}, w, geom.V3(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if s.Config().PhysicsStepS <= 0 || s.Config().Platform.Cores == 0 {
		t.Error("defaults not applied")
	}
}

func TestTakeoffFlyLandClosedLoop(t *testing.T) {
	cfg := DefaultConfig(3)
	cfg.MaxMissionTimeS = 120
	s := emptyWorldSim(t, cfg)

	if err := s.Arm(); err != nil {
		t.Fatal(err)
	}
	if err := s.Takeoff(); err != nil {
		t.Fatal(err)
	}
	// Fly forward once offboard, then land after 20 s of flight.
	s.Engine().Every(des.Seconds(0.1), "test/driver", func(e *des.Engine) {
		switch {
		case s.Now() > 40 && s.FCMode().String() == "offboard":
			_ = s.Land()
		case s.FCMode().String() == "offboard":
			_ = s.IssueVelocity(geom.V3(3, 0, 0), 0)
		}
	})
	s.Engine().Every(des.Seconds(0.1), "test/finish", func(e *des.Engine) {
		if s.FCMode().String() == "landed" {
			s.CompleteMission(true, "")
		}
	})

	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Success {
		t.Fatalf("mission failed: %s", rep.FailureReason)
	}
	if rep.DistanceM < 20 {
		t.Errorf("distance = %.1f m, expected a real flight", rep.DistanceM)
	}
	if rep.MaxSpeed < 2 {
		t.Errorf("max speed = %.1f", rep.MaxSpeed)
	}
	if rep.TotalEnergyKJ <= 0 {
		t.Error("no energy consumed")
	}
	if rep.RotorEnergyKJ <= rep.ComputeEnergyKJ {
		t.Error("rotor energy should dominate compute energy")
	}
	if s.CommandsIssued() == 0 {
		t.Error("no commands issued")
	}
	if s.Battery().StateOfCharge() >= 1 {
		t.Error("battery did not discharge")
	}
}

func TestSensorTopicsPublish(t *testing.T) {
	cfg := DefaultConfig(5)
	s := emptyWorldSim(t, cfg)

	depthSeen, rgbSeen, gpsSeen, imuSeen := 0, 0, 0, 0
	g := s.Graph()
	g.Node("test").Subscribe(TopicDepthImage, 4, func(now time.Duration, msg ros.Message) ros.CallbackResult {
		depthSeen++
		return ros.CallbackResult{}
	})
	g.Node("test").Subscribe(TopicRGBFrame, 4, func(now time.Duration, msg ros.Message) ros.CallbackResult {
		rgbSeen++
		return ros.CallbackResult{}
	})
	g.Node("test").Subscribe(TopicGPS, 4, func(now time.Duration, msg ros.Message) ros.CallbackResult {
		gpsSeen++
		return ros.CallbackResult{}
	})
	g.Node("test").Subscribe(TopicIMU, 4, func(now time.Duration, msg ros.Message) ros.CallbackResult {
		imuSeen++
		return ros.CallbackResult{}
	})

	s.RunFor(2)
	if depthSeen == 0 || rgbSeen == 0 || gpsSeen == 0 || imuSeen == 0 {
		t.Errorf("sensor publications missing: depth=%d rgb=%d gps=%d imu=%d", depthSeen, rgbSeen, gpsSeen, imuSeen)
	}
	if imuSeen <= gpsSeen {
		t.Error("IMU should publish faster than GPS")
	}
}

func TestCollisionAbortsMission(t *testing.T) {
	w := env.BoundedEmptyWorld(100, 40, 1)
	// A wall directly in the flight path.
	w.AddObstacle(env.KindStructure, geom.NewAABB(geom.V3(14, -20, 0), geom.V3(16, 20, 30)), "wall")
	cfg := DefaultConfig(7)
	cfg.MaxMissionTimeS = 120
	s, err := New(cfg, w, geom.V3(0, 0, 0))
	if err != nil {
		t.Fatal(err)
	}
	_ = s.Arm()
	_ = s.Takeoff()
	s.Engine().Every(des.Seconds(0.1), "test/driver", func(*des.Engine) {
		if s.FCMode().String() == "offboard" {
			_ = s.IssueVelocity(geom.V3(5, 0, 0), 0)
		}
	})
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Success {
		t.Error("flying into a wall should fail the mission")
	}
	if rep.FailureReason != "collision" {
		t.Errorf("failure reason = %q", rep.FailureReason)
	}
	if s.Collisions() == 0 {
		t.Error("collision counter not incremented")
	}
}

func TestMissionTimeout(t *testing.T) {
	cfg := DefaultConfig(9)
	cfg.MaxMissionTimeS = 5
	s := emptyWorldSim(t, cfg)
	_ = s.Arm()
	_ = s.Takeoff()
	rep, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Success {
		t.Error("timed-out mission should not be successful")
	}
	if rep.FailureReason != "mission timeout" {
		t.Errorf("failure reason = %q", rep.FailureReason)
	}
	if rep.MissionTimeS > 6 {
		t.Errorf("mission time %v exceeds the horizon", rep.MissionTimeS)
	}
}

func TestComputeCostDelaysWork(t *testing.T) {
	// The same kernel load takes longer (in virtual time) on a weaker
	// platform, which is the foundation of every compute-scaling result.
	elapsed := func(platform compute.Platform) time.Duration {
		cfg := DefaultConfig(11)
		cfg.Platform = platform
		s := emptyWorldSim(t, cfg)
		costModel := compute.NewCostModel(platform)
		done := 0
		for i := 0; i < 8; i++ {
			s.Graph().Executor().Submit("load", func(now time.Duration) ros.CallbackResult {
				done++
				return ros.CallbackResult{Cost: costModel.MustKernelTime(compute.KernelOctomap), Kernel: compute.KernelOctomap}
			}, nil)
		}
		start := s.Engine().Now()
		s.RunFor(300)
		if done != 8 {
			t.Fatalf("only %d jobs ran", done)
		}
		totals := s.Graph().Executor().KernelTotals()
		return totals[compute.KernelOctomap] - 0*start
	}
	slow := elapsed(compute.TX2(2, compute.TX2FreqLowGHz))
	fast := elapsed(compute.DefaultTX2())
	if slow <= fast {
		t.Errorf("weak platform should accumulate more kernel time: slow=%v fast=%v", slow, fast)
	}
}

func TestKernelTimeOffloadPassthrough(t *testing.T) {
	cfg := DefaultConfig(13)
	s := emptyWorldSim(t, cfg)
	if got := s.KernelTime(compute.KernelShortestPath, time.Second, 100, 100); got != time.Second {
		t.Errorf("without an offloader the edge cost should pass through, got %v", got)
	}

	edge := compute.NewCostModel(compute.DefaultTX2())
	remote := compute.NewCostModel(compute.CloudServer())
	cfg2 := DefaultConfig(13)
	cfg2.Offload = compute.NewOffloader(edge, remote, compute.LAN1Gbps(), compute.KernelShortestPath)
	s2 := emptyWorldSim(t, cfg2)
	if got := s2.KernelTime(compute.KernelShortestPath, time.Second, 100_000, 10_000); got >= time.Second {
		t.Errorf("offloaded planning should be faster than the edge, got %v", got)
	}
}

func TestDepthNoiseConfig(t *testing.T) {
	cfg := DefaultConfig(17)
	cfg.DepthNoiseStd = 1.0
	s := emptyWorldSim(t, cfg)
	if s.DepthCamera().Noise == nil {
		t.Error("depth noise not installed")
	}
}

func TestSensorsRenderOnlyWhenSubscribed(t *testing.T) {
	cfg := DefaultConfig(19)
	s := emptyWorldSim(t, cfg)
	g := s.Graph()
	topics := []string{TopicDepthImage, TopicRGBFrame, TopicGPS, TopicIMU}

	s.RunFor(10)
	for _, topic := range topics {
		if n := g.Topic(topic).Published(); n != 0 {
			t.Errorf("%s published %d messages with no subscriber", topic, n)
		}
	}

	depthSeen := 0
	g.Node("late").Subscribe(TopicDepthImage, 4, func(now time.Duration, msg ros.Message) ros.CallbackResult {
		depthSeen++
		return ros.CallbackResult{}
	})
	const seconds = 10
	s.RunFor(seconds)
	want := int(seconds * cfg.DepthCameraRateHz)
	if got := g.Topic(TopicDepthImage).Published(); got != uint64(want) {
		t.Errorf("depth frames after a mid-run subscribe = %d, want %d", got, want)
	}
	if depthSeen != want {
		t.Errorf("subscriber received %d depth frames, want %d", depthSeen, want)
	}
	for _, topic := range topics[1:] {
		if n := g.Topic(topic).Published(); n != 0 {
			t.Errorf("%s published %d messages with no subscriber", topic, n)
		}
	}
}
