package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// The CPU profile is read with the toolchain's own reader, `go tool pprof
// -traces`, which prints every distinct stack with the CPU time sampled in
// it. The function names are already in a Go CPU profile, so no binary is
// needed to symbolize it.

// profSample is one distinct stack of a CPU profile, as function names leaf
// first (inlined callees before their callers), and the CPU time sampled in
// it.
type profSample struct {
	stack []string
	ns    int64
}

// readCPUProfile reads the CPU profile saved at path.
func readCPUProfile(ctx context.Context, path string) ([]profSample, error) {
	cmd := exec.CommandContext(ctx, "go", "tool", "pprof", "-symbolize=none", "-traces", path)
	cmd.Env = append(os.Environ(), "PPROF_TMPDIR="+filepath.Dir(path))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof %s: %w: %s", path, err, strings.TrimSpace(stderr.String()))
	}
	return parseTraces(string(out))
}

// parseTraces parses the output of `go tool pprof -traces`: a header, then
// one block per stack, each opened by a line of dashes. A block holds the
// sample's labels ("key:  value"), then a line with the sampled time and
// the leaf frame, then one line per caller.
func parseTraces(text string) ([]profSample, error) {
	var out []profSample
	var cur *profSample
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "-----------+") {
			if cur != nil {
				if len(cur.stack) == 0 {
					return nil, errors.New("go tool pprof -traces: a block without a stack")
				}
				out = append(out, *cur)
			}
			cur = &profSample{}
			continue
		}
		fields := strings.Fields(line)
		if cur == nil || len(fields) == 0 {
			continue // the header, or the blank line at the end
		}
		if len(cur.stack) == 0 {
			d, err := time.ParseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue // a label line
			}
			cur.ns = d.Nanoseconds()
			fields = fields[1:]
		}
		cur.stack = append(cur.stack, fields[0]) // drops a trailing "(inline)"
	}
	// The output closes its last block with a line of dashes too.
	if cur != nil && len(cur.stack) > 0 {
		out = append(out, *cur)
	}
	return out, nil
}

// The attribution rule. A sample belongs to exactly one layer:
//
//  1. the outermost frame in a kernel-layer package (env, sensors,
//     pointcloud, octomap, planning, physics, actuation, energy,
//     detection, tracking, slam) picks the layer;
//  2. otherwise, a sample inside encoding/json called from the program
//     is result encoding;
//  3. otherwise, the innermost orchestration frame (des, ros, sim,
//     mavlink, telemetry -> dispatch; workloads, core, the other internal
//     packages and pkg/... -> orchestration) picks the layer;
//  4. otherwise background GC work is runtime.gc, and anything else
//     (the benchmark's own code, net/http, the scheduler) is other.
//
// geom frames are neither kernel nor orchestration frames, so they count
// toward their caller.

const modulePrefix = "mavbench/"

// layerOf applies the attribution rule to one stack, leaf first.
func layerOf(stack []string) string {
	for i := len(stack) - 1; i >= 0; i-- {
		if l := kernelLayer(stack[i]); l != "" {
			return l
		}
	}
	for i, fn := range stack {
		if !strings.HasPrefix(fn, "encoding/json.") {
			continue
		}
		// The first non-standard-library caller decides whose encoding it is.
		for _, caller := range stack[i+1:] {
			if strings.HasPrefix(caller, modulePrefix) {
				return "encode"
			}
			if strings.HasPrefix(caller, "main.") {
				return "other"
			}
		}
	}
	for _, fn := range stack {
		if l := orchestrationLayer(fn); l != "" {
			return l
		}
	}
	for _, fn := range stack {
		if isGCFrame(fn) {
			return "runtime.gc"
		}
	}
	return "other"
}

// pkgOf returns the import path of a pprof function name such as
// "mavbench/internal/octomap.(*Map).InsertPointCloud".
func pkgOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// kernelLayer names the layer of a frame in a kernel-layer package, or ""
// for any other frame.
func kernelLayer(fn string) string {
	full := pkgOf(fn)
	pkg, ok := strings.CutPrefix(full, modulePrefix+"internal/")
	if !ok || len(fn) <= len(full) {
		return ""
	}
	method := fn[len(full)+1:]
	switch pkg {
	case "sensors":
		return "sensors.capture"
	case "pointcloud":
		return "pointcloud"
	case "physics", "actuation", "energy":
		return "physics"
	case "detection", "tracking", "slam":
		return "perception"
	case "octomap":
		switch {
		case hasAnyPrefix(method, "(*Map).CollidesSphere", "(*Map).SegmentCollides",
			"(*Map).At", "(*Map).IsOccupied", "(*Map).IsFree", "(*Map).OccupancyProbability"):
			return "collision"
		case hasAnyPrefix(method, "(*Map).FrontierCells", "(*Map).KnownFraction", "(*Map).isFrontier"):
			return "planning.frontier"
		}
		return "octomap.insert"
	case "planning":
		switch {
		case hasAnyPrefix(method, "SelectFrontier", "informationGain"):
			return "planning.frontier"
		case hasAnyPrefix(method, "(*MapChecker)", "(*WorldChecker)"):
			return "collision"
		}
		return "planning.path"
	case "env":
		switch {
		case hasAnyPrefix(method, "(*World).NearestObstacleDistance", "(*World).Occupied", "(*World).SegmentCollides"):
			return "collision"
		case hasAnyPrefix(method, "(*World).RayCast", "(*World).CastStatic", "(*World).CastDynamic", "(*obstacleIndex).castStatic"):
			return "sensors.capture"
		case hasAnyPrefix(method, "(*World).Step", "(*World).MoveObstacle"):
			return "physics"
		}
		// World generation, cloning, snapshots and the world cache.
		return "provision"
	}
	return ""
}

// orchestrationLayer names the layer of a frame in an orchestration
// package, or "" for any other frame.
func orchestrationLayer(fn string) string {
	pkg := pkgOf(fn)
	if !strings.HasPrefix(pkg, modulePrefix) || pkg == modulePrefix+"internal/geom" {
		return ""
	}
	switch strings.TrimPrefix(pkg, modulePrefix+"internal/") {
	case "des", "ros", "sim", "mavlink", "telemetry":
		return "dispatch"
	}
	return "orchestration"
}

func isGCFrame(fn string) bool {
	return hasAnyPrefix(fn, "runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge", "runtime.gcDrain", "runtime.markroot")
}

func hasAnyPrefix(s string, prefixes ...string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// layerNames lists every layer the rule can return, in report order.
var layerNames = []string{
	"sensors.capture", "octomap.insert", "planning.frontier", "planning.path",
	"pointcloud", "collision", "physics", "perception", "dispatch",
	"orchestration", "provision", "encode", "runtime.gc", "other",
}

// attribute sums sample CPU time per layer, in nanoseconds.
func attribute(samples []profSample) map[string]int64 {
	out := map[string]int64{}
	for _, s := range samples {
		out[layerOf(s.stack)] += s.ns
	}
	return out
}
