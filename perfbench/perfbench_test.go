package main

import (
	"context"
	"encoding/json"
	"io"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the self-test checks against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestWorkloadsTiny runs every workload at a tiny size, timed and traced,
// and checks that each run is correct and prints exactly the metrics
// BENCHMARK.json names, each with its unit.
func TestWorkloadsTiny(t *testing.T) {
	bf := readBenchmarkFile(t)
	if len(bf.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(bf.Workloads), len(workloadNames))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json says %q, the program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, w := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := bf.EndToEnd
			if trace {
				want = bf.PerLayer
			}
			cfg := config{workload: w, seed: 7, seconds: 0.3, trace: trace, callers: 2, tiny: true, outDir: t.TempDir()}
			res, err := run(context.Background(), cfg, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", w, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", w, trace, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s trace=%v: metric %s has unit %q, BENCHMARK.json says %q", w, trace, m.Name, got.Unit, m.Unit)
				}
			}
		}
	}
}

// TestTracedRunsRepeat runs the same traced workload twice in one output
// directory: the second run compares its digest and counts with the first.
func TestTracedRunsRepeat(t *testing.T) {
	cfg := config{workload: "explore", seed: 3, seconds: 0.3, trace: true, callers: 2, tiny: true, outDir: t.TempDir()}
	for i := 0; i < 2; i++ {
		res, err := run(context.Background(), cfg, io.Discard)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Correct {
			t.Fatalf("run %d: not correct", i)
		}
	}
}

func TestLayerOf(t *testing.T) {
	const in = "mavbench/internal/"
	for _, tc := range []struct {
		name  string
		stack []string // leaf first
		want  string
	}{
		{"outermost kernel frame wins", []string{
			in + "env.(*obstacleIndex).castStatic", in + "env.(*World).CastStatic",
			in + "sensors.(*DepthCamera).Capture", in + "workloads.(*navigator).step", in + "sim.(*Sim).Run",
		}, "sensors.capture"},
		{"octomap insert", []string{
			in + "octomap.(*Map).insertRayBatch", in + "octomap.(*Map).InsertPointCloud", in + "workloads.setupExploration.func1",
		}, "octomap.insert"},
		{"octomap under frontier selection", []string{
			in + "octomap.(*Map).isFrontier", in + "octomap.(*Map).FrontierCells", in + "planning.SelectFrontier", in + "workloads.setupExploration.func2",
		}, "planning.frontier"},
		{"collision checks in a planner count as planning", []string{
			in + "octomap.(*Map).CollidesSphere", in + "planning.(*MapChecker).PointFree", in + "planning.(*RRT).Plan", in + "workloads.(*navigator).plan",
		}, "planning.path"},
		{"sphere check", []string{in + "octomap.(*Map).CollidesSphere", in + "workloads.(*navigator).step"}, "collision"},
		{"nearest obstacle", []string{in + "env.(*World).NearestObstacleDistance", in + "sim.(*Sim).step"}, "collision"},
		{"geom counts toward its caller", []string{in + "geom.Vec3.Add", in + "pointcloud.FromDepthImage", in + "workloads.capture"}, "pointcloud"},
		{"world build", []string{in + "env.NewUrbanWorld", in + "env.(*WorldCache).GetOrBuild", in + "core.RunWithCache"}, "provision"},
		{"physics", []string{in + "geom.Vec3.Scale", in + "physics.(*Body).Step", in + "sim.(*Sim).step"}, "physics"},
		{"perception", []string{in + "tracking.(*Tracker).Update", in + "workloads.follow"}, "perception"},
		{"dispatch self time", []string{"runtime.mapaccess1", in + "des.(*Queue).Pop", in + "sim.(*Sim).Run"}, "dispatch"},
		{"innermost orchestration frame", []string{"sort.Slice", in + "telemetry.(*Recorder).Report", in + "core.RunWithCache", "mavbench/pkg/mavbench.(*Campaign).runOne"}, "dispatch"},
		{"orchestration", []string{"runtime.memmove", in + "workloads.setupExploration", in + "core.Run"}, "orchestration"},
		{"result encoding", []string{"encoding/json.(*encodeState).marshal", "encoding/json.(*Encoder).Encode", "mavbench/pkg/mavbench/server.(*Server).handleRun"}, "encode"},
		{"the benchmark's own encoding", []string{"encoding/json.Marshal", "main.canonicalResult", "main.(*checker).add"}, "other"},
		{"background GC", []string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2", "runtime.systemstack"}, "runtime.gc"},
		{"anything else", []string{"syscall.Syscall", "net/http.(*conn).serve"}, "other"},
	} {
		if got := layerOf(tc.stack); got != tc.want {
			t.Errorf("%s: layerOf = %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestParseTraces(t *testing.T) {
	const text = `File: perfbench
Type: cpu
Duration: 1s, Total samples = 40ms ( 4.00%)
-----------+-------------------------------------------------------
   request:  1
  workload:  explore
      10ms   mavbench/internal/octomap.(*chunk).isKnown (inline)
             mavbench/internal/octomap.(*Map).InsertPointCloud
             mavbench/internal/sim.(*Simulator).Run
-----------+-------------------------------------------------------
     1.03s   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`
	got, err := parseTraces(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []profSample{
		{[]string{"mavbench/internal/octomap.(*chunk).isKnown", "mavbench/internal/octomap.(*Map).InsertPointCloud", "mavbench/internal/sim.(*Simulator).Run"}, 10e6},
		{[]string{"runtime.gcBgMarkWorker"}, 1.03e9},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTraces = %+v, want %+v", got, want)
	}
}
