package main

import (
	"fmt"

	"mavbench/pkg/mavbench"
)

// shape sizes one workload. The benchmark proper always runs the full
// shapes; the self-test runs the tiny ones.
type shape struct {
	worlds     int     // distinct worlds per pass (explore, transit)
	points     int     // paper operating points per world, at most 9
	worldScale float64 // 0 = the workload's full scale
	maxMission float64 // simulated-seconds cap, 0 = workload default
	stored     int     // specs pre-filled into the store (service)
	callers    int     // closed-loop callers, 0 = one per CPU
	setups     int     // set-ups in a timed run; setup_s is their median
}

var fullShapes = map[string]shape{
	// Explore missions at full scale hover until the 900 s cap, so every
	// mission is capped at 120 s: runs get many short missions over many
	// worlds instead of a few long ones over two.
	"explore": {worlds: 16, points: 9, maxMission: 120, setups: 21},
	"transit": {worlds: 16, points: 9, setups: 21},
	// One caller, so one CPU simulates the new specs while the other
	// serves the store, HTTP and encoding path. With a caller and a worker
	// per CPU both CPUs simulate, and store hits wait for a scheduler time
	// slice; with two callers on one worker, the second campaign waits for
	// the coordinator's periodic re-check of a busy fleet.
	"service": {worldScale: 0.35, stored: 24, callers: 1, setups: 7},
}

var tinyShapes = map[string]shape{
	"explore": {worlds: 1, points: 2, worldScale: 0.25, maxMission: 60, setups: 2},
	"transit": {worlds: 1, points: 2, worldScale: 0.25, maxMission: 60, setups: 2},
	"service": {worldScale: 0.25, maxMission: 60, stored: 8, callers: 1, setups: 2},
}

func shapeOf(workload string, tiny bool) shape {
	if tiny {
		return tinyShapes[workload]
	}
	return fullShapes[workload]
}

// workloadNames lists the workloads in the order BENCHMARK.json gives them.
var workloadNames = []string{"explore", "transit", "service"}

// appsOf maps a world-scale workload to the applications it flies.
var appsOf = map[string][]string{
	// Occupancy mapping and frontier exploration with long hovers.
	"explore": {"mapping_3d", "search_and_rescue"},
	// Coverage flights: depth capture and dispatch, no occupancy map.
	"transit": {"scanning", "aerial_photography"},
}

// servicePresets are the scenario presets the service workload's package
// deliveries fly through.
var servicePresets = []string{"urban-sparse", "urban-default", "urban-dense", "farm-default", "park-default"}

// worldPass returns one pass of a world-scale workload: each application
// flown at every paper operating point over each of the seed's worlds. All
// operating points of one world share its seed, so they fly the same world
// and the world cache builds it once.
func worldPass(name string, seed int64, sz shape) ([]mavbench.Spec, error) {
	points := mavbench.PaperOperatingPoints()[:sz.points]
	var pass []mavbench.Spec
	for w := 0; w < sz.worlds; w++ {
		worldSeed := mavbench.DeriveSeed(seed, name, 0, 0, w)
		for _, app := range appsOf[name] {
			for _, pt := range points {
				spec, err := mavbench.NewSpec(app,
					mavbench.WithOperatingPoint(pt.Cores, pt.FreqGHz),
					mavbench.WithSeed(worldSeed),
					mavbench.WithWorldScale(sz.worldScale),
					mavbench.WithMaxMissionTime(sz.maxMission))
				if err != nil {
					return nil, fmt.Errorf("%s pass: %w", name, err)
				}
				pass = append(pass, spec)
			}
		}
	}
	return pass, nil
}

// warmupSpec is a short mission over the same world as spec: it builds and
// caches the world and warms the simulator's pools without flying the whole
// mission. The mission cap is not part of the world hash.
func warmupSpec(spec mavbench.Spec) mavbench.Spec {
	spec.MaxMissionTimeS = 5
	return spec
}

// serviceSpec returns the n-th package delivery of one kind ("stored" for
// the pre-filled pool, "new" for specs the store has never seen). Seeds,
// scenario presets and operating points all vary with n.
func serviceSpec(seed int64, kind string, n int, sz shape) (mavbench.Spec, error) {
	points := mavbench.PaperOperatingPoints()
	pt := points[n%len(points)]
	return mavbench.NewSpec("package_delivery",
		mavbench.WithOperatingPoint(pt.Cores, pt.FreqGHz),
		mavbench.WithSeed(mavbench.DeriveSeed(seed, "service-"+kind, 0, 0, n)),
		mavbench.WithScenario(servicePresets[n%len(servicePresets)]),
		mavbench.WithWorldScale(sz.worldScale),
		mavbench.WithMaxMissionTime(sz.maxMission))
}
