// Command perfbench is the repository benchmark. It drives one workload
// through the public API with closed-loop callers, checks every result,
// and prints one JSON line of metrics: end-to-end metrics from an untraced
// run, or per-layer metrics from a traced one (--trace 1). See README.md.
package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strconv"
	"strings"
	"time"
)

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	callers  int
	tiny     bool   // self-test shapes
	outDir   string // traces, profiles, stores and run records
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runLimit keeps every run inside the time a run is allowed; a run that
// hits it fails its missions instead of hanging.
const runLimit = 170 * time.Second

func main() {
	// One closed-loop caller per CPU, unless the workload sets its own.
	cfg := config{callers: runtime.NumCPU()}
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the timed phase in seconds")
	flag.IntVar(&trace, "trace", 0, "1 runs the traced passes and prints per-layer metrics")
	flag.StringVar(&cfg.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for traces, profiles and run records")
	flag.Parse()
	cfg.trace = trace == 1

	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	res, err := run(ctx, cfg, os.Stderr)
	cancel()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one invocation. Problems with the program's outputs are
// reported through result.Correct; an error means no result at all.
func run(ctx context.Context, cfg config, log io.Writer) (result, error) {
	known := false
	for _, w := range workloadNames {
		known = known || w == cfg.workload
	}
	switch {
	case !known:
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", cfg.workload, strings.Join(workloadNames, ", "))
	case cfg.seconds <= 0:
		return result{}, errors.New("--seconds must be positive")
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return result{}, err
	}
	if c := shapeOf(cfg.workload, cfg.tiny).callers; c > 0 {
		cfg.callers = c
	}
	b := &bench{cfg: cfg, log: log, chk: newChecker()}
	if cfg.trace {
		return b.traced(ctx)
	}
	return b.timed(ctx)
}

// bench carries one invocation's state.
type bench struct {
	cfg      config
	log      io.Writer
	chk      *checker
	problems []string
}

func (b *bench) problem(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
	fmt.Fprintf(b.log, "perfbench: check failed: "+format+"\n", args...)
}

// newSystem sets up the program for the workload; k numbers the set-ups of
// one invocation.
func (b *bench) newSystem(ctx context.Context, k int, tr *tracer) (system, error) {
	if b.cfg.workload == "service" {
		dir := filepath.Join(b.cfg.outDir, fmt.Sprintf("store-%d-%d", os.Getpid(), k))
		return newServiceSystem(ctx, b.cfg.seed, shapeOf("service", b.cfg.tiny), b.cfg.callers, dir, tr)
	}
	return newLocalSystem(ctx, b.cfg.workload, b.cfg.seed, shapeOf(b.cfg.workload, b.cfg.tiny), b.cfg.callers)
}

// timed sets up several times, then runs the closed loop for the given
// seconds with tracing off and reports the end-to-end metrics.
func (b *bench) timed(ctx context.Context) (result, error) {
	var setupS []float64
	var sys system
	setupRuns := shapeOf(b.cfg.workload, b.cfg.tiny).setups
	for k := 0; k < setupRuns; k++ {
		start := time.Now()
		s, err := b.newSystem(ctx, k, nil)
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		if k == setupRuns-1 {
			sys = s
		} else if err := s.close(); err != nil {
			return result{}, err
		}
	}
	for _, r := range sys.setupResults() {
		b.chk.add(r)
	}

	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	deadline := time.Now().Add(time.Duration(b.cfg.seconds * float64(time.Second)))
	ph := drive(ctx, sys, b.cfg.workload, b.cfg.callers, 0, deadline)
	runtime.ReadMemStats(&m1)
	rss, err := peakRSSMB()
	if err != nil {
		return result{}, err
	}

	b.chk.addPhase(ph)
	b.checkOutputs(ctx, sys, nil)
	if err := sys.close(); err != nil {
		return result{}, err
	}

	n := float64(len(ph.outs))
	var lat []float64
	var simS float64
	failed := 0
	for _, o := range ph.outs {
		lat = append(lat, float64(o.latency)/float64(time.Millisecond))
		if o.failed() {
			failed++
		} else if !o.res.Cached {
			simS += o.res.Report.MissionTimeS
		}
	}
	sort.Float64s(lat)
	wall := ph.wall.Seconds()
	fmt.Fprintf(b.log, "perfbench: %s seed %d: %d missions in %d requests over %.2f s, %d samples above p90\n",
		b.cfg.workload, b.cfg.seed, len(ph.outs), ph.requests, wall, len(lat)-int(math.Ceil(0.9*n)))
	return result{
		Correct:   len(b.problems) == 0 && failed == 0,
		Attempted: len(ph.outs),
		Failed:    failed,
		Metrics: map[string]metric{
			"missions_per_s":       {n / wall, "1/s"},
			"sim_speed_x":          {simS / wall, "s/s"},
			"mission_ms_p50":       {quantile(lat, 0.5), "ms"},
			"mission_ms_p90":       {quantile(lat, 0.9), "ms"},
			"setup_s":              {median(setupS), "s"},
			"alloc_mb_per_mission": {float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6 / n, "MB"},
			"peak_rss_mb":          {rss, "MB"},
		},
	}, nil
}

// tracePasses is how many passes each phase of a traced run makes: enough
// CPU samples per layer, and a fixed number so counts repeat exactly.
var tracePasses = map[string]int{"explore": 1, "transit": 1, "service": 20}

// traced runs the same missions twice on fresh set-ups, first untraced and
// then with the CPU profile and spans on, and reports per-layer metrics.
func (b *bench) traced(ctx context.Context) (result, error) {
	passes := tracePasses[b.cfg.workload]
	if b.cfg.tiny {
		passes = 1
	}

	plain, err := b.newSystem(ctx, 0, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	for _, r := range plain.setupResults() {
		b.chk.add(r)
	}
	limit := passes * plain.passLen()
	phA := drive(ctx, plain, b.cfg.workload, b.cfg.callers, limit, time.Time{})
	if err := plain.close(); err != nil {
		return result{}, err
	}
	b.chk.addPhase(phA)

	// The traced set-up is profiled too, so world builds show in
	// provision.busy_ms, and the world cache's counters cover set-up and
	// pass together.
	stem := filepath.Join(b.cfg.outDir, fmt.Sprintf("%s-%d", b.cfg.workload, b.cfg.seed))
	tr := newTracer()
	var sys system
	setupSamples, err := profiled(ctx, stem+".setup.cpu.pprof", func() (err error) {
		sys, err = b.newSystem(ctx, 1, tr)
		return err
	})
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	for _, r := range sys.setupResults() {
		b.chk.add(r)
	}
	svc, _ := sys.(*serviceSystem)
	var batches0 float64
	if svc != nil {
		if batches0, err = svc.dispatchedBatches(ctx); err != nil {
			return result{}, err
		}
	}
	var ph phase
	start := time.Now()
	samples, err := profiled(ctx, stem+".cpu.pprof", func() error {
		ph = drive(ctx, sys, b.cfg.workload, b.cfg.callers, limit, time.Time{})
		return nil
	})
	if err != nil {
		return result{}, err
	}
	worlds := sys.worldStats()
	spans := tr.totals(start)
	batches := 0.0
	if svc != nil {
		// The workers' handlers and the coordinator's batch counter finish
		// just after the last results are out: wait until both agree.
		for wait, last := time.Now(), -1.0; time.Since(wait) < 2*time.Second; time.Sleep(20 * time.Millisecond) {
			n, err := svc.dispatchedBatches(ctx)
			if err != nil {
				return result{}, err
			}
			spans = tr.totals(start)
			batches = n - batches0
			if batches == last && int(batches) == spans["http.dispatch"].count {
				break
			}
			last = batches
		}
	}
	b.chk.addPhase(ph)

	m := map[string]metric{}
	counts := missionCounts(ph.outs)
	for name, v := range counts {
		m[name] = metric{v, unitOf(name)}
	}
	if a := missionCounts(phA.outs); !equalCounts(a, counts) {
		b.problem("counts differ between the untraced and the traced pass: %v vs %v", a, counts)
	}
	b.checkOutputs(ctx, sys, counts)
	if err := sys.close(); err != nil {
		return result{}, err
	}

	n := float64(len(ph.outs))
	byLayer := attribute(samples)
	byLayer["provision"] += attribute(setupSamples)["provision"]
	for _, l := range layerNames {
		m[l+".busy_ms"] = metric{float64(byLayer[l]) / 1e6 / n, "ms"}
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	hit, miss := spans["store.get.hit"], spans["store.get.miss"]
	put, disp, stream := spans["store.put"], spans["http.dispatch"], spans["http.results_stream"]
	sub, first := spans["http.submit"], spans["http.first_result"]
	failedA, failed, success, returned := 0, 0, 0, 0
	for _, o := range phA.outs {
		if o.failed() {
			failedA++
		}
	}
	for _, o := range ph.outs {
		if o.failed() {
			failed++
			continue
		}
		returned++
		if o.res.Report.Success {
			success++
		}
	}
	for name, v := range map[string]float64{
		"store.get.count":       float64(hit.count+miss.count) / n,
		"store.get.busy_ms":     ms(hit.busy+miss.busy) / n,
		"store.put.count":       float64(put.count) / n,
		"store.put.busy_ms":     ms(put.busy) / n,
		"store.hit_ratio":       ratio(float64(hit.count), float64(hit.count+miss.count)),
		"http.submit_ms":        ratio(ms(sub.busy), float64(sub.count)),
		"http.first_result_ms":  ratio(ms(first.busy), float64(first.count)),
		"http.dispatch.count":   batches / n,
		"http.dispatch.busy_ms": ms(disp.busy) / n,
		"encode.bytes":          float64(disp.bytes+stream.bytes) / n,
		"provision.hit_ratio":   ratio(float64(worlds.Hits), float64(worlds.Hits+worlds.Misses)),
		"trace.overhead_pct":    (ph.wall.Seconds()/phA.wall.Seconds() - 1) * 100,
		"error_rate":            float64(failed) / n,
		"mission_success_rate":  ratio(float64(success), float64(returned)),
	} {
		m[name] = metric{v, unitOf(name)}
	}

	if err := tr.write(stem + ".spans.json"); err != nil {
		return result{}, err
	}
	var cpu int64
	for _, l := range byLayer {
		cpu += l
	}
	fmt.Fprintf(b.log, "perfbench: %s seed %d: traced %d missions in %.2f s (untraced %.2f s), %.2f CPU s sampled; profiles and spans at %s.*\n",
		b.cfg.workload, b.cfg.seed, len(ph.outs), ph.wall.Seconds(), phA.wall.Seconds(), float64(cpu)/1e9, stem)
	return result{
		Correct:   len(b.problems) == 0 && failedA+failed == 0,
		Attempted: len(phA.outs) + len(ph.outs),
		Failed:    failedA + failed,
		Metrics:   m,
	}, nil
}

// profiled runs fn under the CPU profile, saves the profile at path and
// returns its samples.
func profiled(ctx context.Context, path string, fn func() error) ([]profSample, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	err := fn()
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return nil, err
	}
	return readCPUProfile(ctx, path)
}

// checkOutputs runs every output check after a run's phases: results of
// one spec never differ, the digest covers the same specs every time, the
// workload's own verification passes, and the digest and counts match any
// earlier run of the same binary at the same seed.
func (b *bench) checkOutputs(ctx context.Context, sys system, counts map[string]float64) {
	if n := len(b.chk.mismatch); n > 0 {
		b.problem("%d results differ from the first result of the same spec", n)
	}
	if err := complete(ctx, sys, b.chk); err != nil {
		b.problem("%v", err)
	}
	if err := sys.verify(ctx, b.chk); err != nil {
		b.problem("%v", err)
	}
	digest, err := b.chk.digest(sys.digestSpecs())
	if err != nil {
		b.problem("results digest: %v", err)
		return
	}
	fmt.Fprintf(b.log, "perfbench: %s seed %d: results digest %s over %d specs\n",
		b.cfg.workload, b.cfg.seed, digest, len(sys.digestSpecs()))
	if err := b.compareRecord(digest, counts); err != nil {
		b.problem("%v", err)
	}
}

// record is what one run leaves for later runs of the same binary at the
// same workload and seed to compare against.
type record struct {
	Digest string             `json:"digest"`
	Counts map[string]float64 `json:"counts,omitempty"`
}

func (b *bench) compareRecord(digest string, counts map[string]float64) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	bin, err := os.ReadFile(exe)
	if err != nil {
		return err
	}
	sum := sha256.Sum256(bin)
	path := filepath.Join(b.cfg.outDir, fmt.Sprintf("record-%s-%d-%s.json", b.cfg.workload, b.cfg.seed, hex.EncodeToString(sum[:8])))
	var prev record
	if data, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(data, &prev); err != nil {
			return fmt.Errorf("reading %s: %w", path, err)
		}
		if prev.Digest != digest {
			return fmt.Errorf("results digest %s differs from an earlier run's %s", digest, prev.Digest)
		}
		if prev.Counts != nil && counts != nil && !equalCounts(prev.Counts, counts) {
			return fmt.Errorf("counts %v differ from an earlier run's %v", counts, prev.Counts)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	if counts == nil {
		counts = prev.Counts
	}
	data, err := json.Marshal(record{Digest: digest, Counts: counts})
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// missionCounts are the simulated work counts per mission, summed over the
// missions actually simulated (store hits did no work) in a fixed order so
// the sums repeat exactly.
func missionCounts(outs []outcome) map[string]float64 {
	var sims []outcome
	for _, o := range outs {
		if !o.failed() && !o.res.Cached {
			sims = append(sims, o)
		}
	}
	sort.Slice(sims, func(i, j int) bool { return sims[i].res.SpecHash < sims[j].res.SpecHash })
	kernels := map[string]string{
		"octomap.insert.count":    "occupancy_map_generation",
		"planning.frontier.count": "motion_planning_frontier_exploration",
		"planning.path.count":     "motion_planning_shortest_path",
		"pointcloud.count":        "point_cloud_generation",
		"collision.count":         "collision_check",
	}
	out := map[string]float64{}
	var fails, goals, replans, hover, flight float64
	for _, o := range sims {
		r := o.res.Report
		for name, k := range kernels {
			out[name] += float64(r.KernelCount[k])
		}
		fails += r.Counters["planning_failures"]
		goals += r.Counters["exploration_goals"]
		replans += r.Counters["replans"]
		hover += r.HoverTimeS
		flight += r.FlightTimeS
	}
	n := float64(max(len(outs), 1))
	for name := range kernels {
		out[name] /= n
	}
	out["planning.path.replans"] = replans / n
	out["planning.frontier.fail_ratio"] = ratio(fails, goals)
	out["sim.hover_share"] = ratio(hover, flight)
	return out
}

func equalCounts(a, b map[string]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			return false
		}
	}
	return true
}

// unitOf gives a per-layer metric's unit from its name.
func unitOf(name string) string {
	switch {
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, ".count"), strings.HasSuffix(name, ".replans"):
		return "count"
	case strings.HasSuffix(name, ".bytes"):
		return "B"
	case strings.HasSuffix(name, "_pct"):
		return "%"
	}
	return "ratio"
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile interpolates linearly between the closest ranks of sorted.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// peakRSSMB reads the process's peak resident set size from procfs.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("reading peak RSS: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("reading peak RSS: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("reading peak RSS: no VmHWM in /proc/self/status")
}
