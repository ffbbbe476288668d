package workloads_test

import (
	"slices"
	"testing"

	"mavbench/internal/compute"
	"mavbench/internal/core"
	"mavbench/internal/sim"
	_ "mavbench/internal/workloads"
)

// fastParams returns a scaled-down configuration so closed-loop missions stay
// quick enough for unit testing while still exercising the full pipeline.
func fastParams(workload string, seed int64) core.Params {
	return core.Params{
		Workload:        workload,
		Cores:           4,
		FreqGHz:         compute.TX2FreqHighGHz,
		Seed:            seed,
		Localizer:       "ground_truth",
		Planner:         "rrt_connect",
		WorldScale:      0.35,
		MaxMissionTimeS: 420,
	}
}

func TestAllWorkloadsRegistered(t *testing.T) {
	names := core.Workloads()
	want := []string{"aerial_photography", "mapping_3d", "package_delivery", "scanning", "search_and_rescue"}
	if len(names) != len(want) {
		t.Fatalf("registered workloads = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("registered workloads = %v, want %v", names, want)
		}
	}
	for _, n := range names {
		w, err := core.Lookup(n)
		if err != nil {
			t.Fatal(err)
		}
		if w.Description() == "" {
			t.Errorf("workload %s has no description", n)
		}
	}
}

func TestScanningMission(t *testing.T) {
	res, err := core.Run(fastParams("scanning", 3))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if !rep.Success {
		t.Fatalf("scanning mission failed: %s", rep.FailureReason)
	}
	if rep.DistanceM < 50 {
		t.Errorf("scanning covered only %.1f m", rep.DistanceM)
	}
	if rep.KernelTime[compute.KernelLawnmower] == 0 {
		t.Error("lawnmower kernel never charged")
	}
	if rep.KernelTime[compute.KernelPathTracking] == 0 {
		t.Error("path tracking kernel never charged")
	}
	if rep.TotalEnergyKJ <= 0 || rep.RotorEnergyKJ <= rep.ComputeEnergyKJ {
		t.Errorf("energy accounting broken: %+v", rep.TotalEnergyKJ)
	}
	if rep.Counters["coverage_path_length_m"] <= 0 {
		t.Error("coverage path length not recorded")
	}
}

func TestPackageDeliveryMission(t *testing.T) {
	p := fastParams("package_delivery", 5)
	res, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if !rep.Success {
		t.Fatalf("delivery mission failed: %s\n%s", rep.FailureReason, rep.String())
	}
	if rep.Counters["packages_delivered"] != 1 {
		t.Errorf("packages delivered = %v", rep.Counters["packages_delivered"])
	}
	if rep.KernelTime[compute.KernelOctomap] == 0 {
		t.Error("octomap kernel never charged")
	}
	if rep.KernelTime[compute.KernelShortestPath] == 0 {
		t.Error("motion planning kernel never charged")
	}
	if rep.DistanceM < 30 {
		t.Errorf("delivery flew only %.1f m", rep.DistanceM)
	}
}

func TestMappingMission(t *testing.T) {
	res, err := core.Run(fastParams("mapping_3d", 7))
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if !rep.Success {
		t.Fatalf("mapping mission failed: %s\n%s", rep.FailureReason, rep.String())
	}
	if rep.KernelTime[compute.KernelFrontierExplore] == 0 {
		t.Error("frontier exploration kernel never charged")
	}
	if rep.Maxes["map_known_fraction"] <= 0.015 {
		t.Errorf("map coverage = %v", rep.Maxes["map_known_fraction"])
	}
}

func TestSearchAndRescueMission(t *testing.T) {
	p := fastParams("search_and_rescue", 11)
	p.MaxMissionTimeS = 600
	res, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	// The survivor may or may not be found depending on the seed, but the
	// pipeline must have run its kernels either way.
	if rep.KernelTime[compute.KernelObjectDetectHOG] == 0 {
		t.Error("detection kernel never charged")
	}
	if rep.KernelTime[compute.KernelOctomap] == 0 {
		t.Error("octomap kernel never charged")
	}
	if rep.Success && rep.Counters["detections"] == 0 {
		t.Error("successful SAR mission without any detection")
	}
}

func TestAerialPhotographyMission(t *testing.T) {
	p := fastParams("aerial_photography", 13)
	p.Detector = "yolo"
	p.MaxMissionTimeS = 240
	res, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	rep := res.Report
	if rep.Counters["detections"] == 0 {
		t.Fatalf("the subject was never detected\n%s", rep.String())
	}
	if !rep.Success {
		t.Fatalf("photography mission failed: %s", rep.FailureReason)
	}
	if rep.KernelTime[compute.KernelTrackRealTime] == 0 {
		t.Error("tracking kernel never charged")
	}
	if _, ok := rep.Means["framing_error_px"]; !ok {
		t.Error("framing error never recorded")
	}
}

func TestDeterministicRuns(t *testing.T) {
	p := fastParams("scanning", 21)
	a, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Report.MissionTimeS != b.Report.MissionTimeS {
		t.Errorf("same seed produced different mission times: %v vs %v", a.Report.MissionTimeS, b.Report.MissionTimeS)
	}
	if a.Report.TotalEnergyKJ != b.Report.TotalEnergyKJ {
		t.Errorf("same seed produced different energy: %v vs %v", a.Report.TotalEnergyKJ, b.Report.TotalEnergyKJ)
	}
}

func TestComputeScalingImprovesDelivery(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop sweep is slow")
	}
	strong := fastParams("package_delivery", 9)
	weak := fastParams("package_delivery", 9)
	weak.Cores = 2
	weak.FreqGHz = compute.TX2FreqLowGHz

	rs, err := core.Run(strong)
	if err != nil {
		t.Fatal(err)
	}
	rw, err := core.Run(weak)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's central result: more compute shortens the mission (or at
	// the very least never lengthens it) for the octomap-bound workloads.
	if rs.Report.Success && rw.Report.Success {
		if rs.Report.MissionTimeS > rw.Report.MissionTimeS*1.1 {
			t.Errorf("strong platform mission (%.1f s) slower than weak platform (%.1f s)",
				rs.Report.MissionTimeS, rw.Report.MissionTimeS)
		}
	}
}

func TestDynamicResolutionKnob(t *testing.T) {
	p := fastParams("mapping_3d", 15)
	p.DynamicResolution = true
	p.OctomapResolution = 0.2
	p.CoarseResolution = 0.8
	res, err := core.Run(p)
	if err != nil {
		t.Fatal(err)
	}
	// The run must complete and the runtime must have considered switching
	// (in open worlds it may stay coarse throughout; the counter exists
	// either way).
	if _, ok := res.Report.Counters["octomap_inserts"]; !ok {
		t.Error("octomap inserts not counted")
	}
}

func TestCloudOffloadKnob(t *testing.T) {
	if testing.Short() {
		t.Skip("closed-loop comparison is slow")
	}
	edge := fastParams("mapping_3d", 17)
	cloud := fastParams("mapping_3d", 17)
	cloud.CloudOffload = true

	re, err := core.Run(edge)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := core.Run(cloud)
	if err != nil {
		t.Fatal(err)
	}
	// Offloading the planning stage must reduce the time spent in the
	// frontier-exploration kernel (the paper's case study shows ~3X).
	et := re.Report.KernelTime[compute.KernelFrontierExplore]
	ct := rc.Report.KernelTime[compute.KernelFrontierExplore]
	if et == 0 || ct == 0 {
		t.Skip("frontier kernel not exercised in this configuration")
	}
	if ct >= et {
		t.Errorf("offloaded planning time %v not below edge planning time %v", ct, et)
	}
}

func TestUnknownWorkload(t *testing.T) {
	if _, err := core.Run(core.Params{Workload: "juggling"}); err == nil {
		t.Error("unknown workload should fail")
	}
}

// TestSensorWiring pins which sensor topics each workload consumes. The
// simulator renders a sensor sample only for a subscribed topic, so a
// workload that drops or adds a subscription changes its host cost; this
// test makes that change visible.
func TestSensorWiring(t *testing.T) {
	topics := []string{sim.TopicDepthImage, sim.TopicRGBFrame, sim.TopicGPS, sim.TopicIMU}
	wiring := map[string][]string{
		"scanning":           nil,
		"aerial_photography": {sim.TopicRGBFrame},
		"package_delivery":   {sim.TopicDepthImage, sim.TopicGPS},
		"mapping_3d":         {sim.TopicDepthImage, sim.TopicGPS},
		"search_and_rescue":  {sim.TopicDepthImage, sim.TopicRGBFrame, sim.TopicGPS},
	}
	for _, name := range core.Workloads() {
		want, ok := wiring[name]
		if !ok {
			t.Errorf("workload %s has no pinned sensor wiring", name)
			continue
		}
		p := fastParams(name, 3).Normalize()
		w, err := core.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		world, start, err := w.World(p)
		if err != nil {
			t.Fatal(err)
		}
		s, err := sim.New(sim.DefaultConfig(p.Seed), world, start)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Setup(s, p); err != nil {
			t.Fatal(err)
		}
		s.RunFor(3)
		s.Teardown()
		for _, topic := range topics {
			wired := slices.Contains(want, topic)
			if n := s.Graph().Topic(topic).Published(); wired != (n > 0) {
				t.Errorf("%s: %s published %d messages, subscribed = %v", name, topic, n, wired)
			}
		}
	}
}
