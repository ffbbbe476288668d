package planning

import (
	"math"
	"testing"
	"testing/quick"

	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/octomap"
)

// pillarWorld builds a world with a wall that has a gap, so planners must
// actually avoid obstacles.
func pillarWorld() *env.World {
	w := env.New("pillars", geom.NewAABB(geom.V3(-30, -30, 0), geom.V3(30, 30, 20)), 1)
	// A wall across x=0 with a gap around y in [8, 12].
	w.AddObstacle(env.KindStructure, geom.NewAABB(geom.V3(-1, -30, 0), geom.V3(1, 8, 20)), "wall-a")
	w.AddObstacle(env.KindStructure, geom.NewAABB(geom.V3(-1, 12, 0), geom.V3(1, 30, 20)), "wall-b")
	return w
}

func planRequest(seed int64) Request {
	return Request{
		Start:         geom.V3(-20, 0, 5),
		Goal:          geom.V3(20, 0, 5),
		Bounds:        geom.NewAABB(geom.V3(-30, -30, 1), geom.V3(30, 30, 18)),
		Radius:        0.4,
		GoalTolerance: 1.5,
		MaxIterations: 8000,
		StepSize:      2.5,
		Seed:          seed,
	}
}

func TestRequestValidateDefaults(t *testing.T) {
	r := Request{
		Start:  geom.V3(0, 0, 5),
		Goal:   geom.V3(5, 0, 5),
		Bounds: geom.NewAABB(geom.V3(-10, -10, 0), geom.V3(10, 10, 10)),
	}
	if err := r.Validate(); err != nil {
		t.Fatal(err)
	}
	if r.Radius <= 0 || r.GoalTolerance <= 0 || r.MaxIterations <= 0 || r.StepSize <= 0 {
		t.Error("defaults not filled")
	}

	bad := Request{Start: geom.V3(100, 0, 0), Goal: geom.V3(0, 0, 0), Bounds: geom.NewAABB(geom.V3(-1, -1, -1), geom.V3(1, 1, 1))}
	if err := bad.Validate(); err == nil {
		t.Error("out-of-bounds start should fail validation")
	}
	empty := Request{Bounds: geom.AABB{}}
	if err := empty.Validate(); err == nil {
		t.Error("empty bounds should fail validation")
	}
}

func TestNewPlannerFactory(t *testing.T) {
	for _, name := range []string{"", "rrt", "rrt_connect", "rrtconnect", "prm", "prm_astar"} {
		p, err := NewPlanner(name)
		if err != nil || p == nil {
			t.Errorf("NewPlanner(%q): %v", name, err)
		}
		if p.Name() == "" {
			t.Errorf("planner %q has empty name", name)
		}
	}
	if _, err := NewPlanner("dijkstra3000"); err == nil {
		t.Error("unknown planner should fail")
	}
}

func TestPlannersFindCollisionFreePaths(t *testing.T) {
	w := pillarWorld()
	for _, name := range []string{"rrt", "rrt_connect", "prm"} {
		name := name
		t.Run(name, func(t *testing.T) {
			planner, err := NewPlanner(name)
			if err != nil {
				t.Fatal(err)
			}
			checker := NewWorldChecker(w)
			res := planner.Plan(planRequest(7), checker)
			if !res.Found {
				t.Fatalf("%s found no path", name)
			}
			if !res.Path.Valid() {
				t.Fatal("invalid path")
			}
			// Path endpoints must match the request (within tolerance).
			if res.Path.Start().Dist(geom.V3(-20, 0, 5)) > 1e-6 {
				t.Errorf("path starts at %v", res.Path.Start())
			}
			if res.Path.End().Dist(geom.V3(20, 0, 5)) > 2.0 {
				t.Errorf("path ends at %v, too far from goal", res.Path.End())
			}
			// The path must be collision free against the ground truth.
			verify := NewWorldChecker(w)
			if !res.Path.CollisionFree(verify, 0.4) {
				t.Error("planned path collides")
			}
			// It must be longer than the straight line (which is blocked).
			if res.Path.Length() < 40 {
				t.Errorf("path length %.1f shorter than the blocked straight line", res.Path.Length())
			}
			if res.Checks == 0 || res.Iterations == 0 {
				t.Error("planner did not report effort")
			}
			if res.PlannerName == "" {
				t.Error("missing planner name")
			}
		})
	}
}

func TestPlannerFailsWhenGoalUnreachable(t *testing.T) {
	w := env.New("sealed", geom.NewAABB(geom.V3(-30, -30, 0), geom.V3(30, 30, 20)), 1)
	// A complete wall with no gap.
	w.AddObstacle(env.KindStructure, geom.NewAABB(geom.V3(-1, -30, 0), geom.V3(1, 30, 20)), "wall")
	req := planRequest(3)
	req.MaxIterations = 800 // keep the test fast
	for _, name := range []string{"rrt", "rrt_connect", "prm"} {
		planner, _ := NewPlanner(name)
		res := planner.Plan(req, NewWorldChecker(w))
		if res.Found {
			t.Errorf("%s claims to have found a path through a solid wall", name)
		}
	}
}

func TestPlannerRejectsOccupiedStart(t *testing.T) {
	w := pillarWorld()
	req := planRequest(1)
	req.Start = geom.V3(0, 0, 5) // inside the wall
	for _, name := range []string{"rrt", "rrt_connect", "prm"} {
		planner, _ := NewPlanner(name)
		if res := planner.Plan(req, NewWorldChecker(w)); res.Found {
			t.Errorf("%s planned from an occupied start", name)
		}
	}
}

func TestShortcutShortensPaths(t *testing.T) {
	w := env.BoundedEmptyWorld(50, 30, 1)
	checker := NewWorldChecker(w)
	// A deliberately wiggly path in free space.
	p := Path{Waypoints: []geom.Vec3{
		geom.V3(0, 0, 5), geom.V3(5, 10, 5), geom.V3(10, -10, 5), geom.V3(15, 10, 5), geom.V3(20, 0, 5),
	}}
	short := Shortcut(p, checker, 0.4, 200, 42)
	if short.Length() > p.Length() {
		t.Errorf("shortcut lengthened the path: %.1f -> %.1f", p.Length(), short.Length())
	}
	if short.Start() != p.Start() || short.End() != p.End() {
		t.Error("shortcut moved the endpoints")
	}
	// In an empty world the shortcut should approach the straight line.
	straight := p.Start().Dist(p.End())
	if short.Length() > straight*1.2 {
		t.Errorf("shortcut %.1f still far from straight-line %.1f", short.Length(), straight)
	}
	// Short paths pass through unchanged.
	two := Path{Waypoints: []geom.Vec3{geom.V3(0, 0, 0), geom.V3(1, 0, 0)}}
	if got := Shortcut(two, checker, 0.4, 10, 1); len(got.Waypoints) != 2 {
		t.Error("two-point path should be unchanged")
	}
}

func TestShortcutRespectsObstacles(t *testing.T) {
	w := pillarWorld()
	checker := NewWorldChecker(w)
	// A path through the gap; shortcutting must not cut through the wall.
	p := Path{Waypoints: []geom.Vec3{
		geom.V3(-20, 0, 5), geom.V3(-5, 10, 5), geom.V3(0, 10, 5), geom.V3(5, 10, 5), geom.V3(20, 0, 5),
	}}
	short := Shortcut(p, checker, 0.4, 300, 7)
	if !short.CollisionFree(NewWorldChecker(w), 0.4) {
		t.Error("shortcut produced a colliding path")
	}
}

func TestMapCheckerAltitudeBandAndUnknownHandling(t *testing.T) {
	m := octomap.New(0.5, geom.NewAABB(geom.V3(-20, -20, 0), geom.V3(20, 20, 20)))
	m.InsertRay(geom.V3(0, 0, 5), geom.V3(10, 0, 5), 0)

	c := NewMapChecker(m, 1, 10)
	// Unknown space is free by default.
	if !c.PointFree(geom.V3(-5, -5, 5), 0.4) {
		t.Error("unknown space should be free for the optimistic checker")
	}
	// Occupied endpoint is not free.
	if c.PointFree(geom.V3(10, 0, 5), 0.4) {
		t.Error("occupied voxel reported free")
	}
	// Altitude band enforced.
	if c.PointFree(geom.V3(-5, -5, 0.2), 0.4) {
		t.Error("point below floor should be rejected")
	}
	if c.SegmentFree(geom.V3(0, 0, 5), geom.V3(0, 0, 15), 0.4) {
		t.Error("segment leaving the altitude band should be rejected")
	}
	// Conservative mode.
	c.TreatUnknownAsOccupied = true
	if c.PointFree(geom.V3(-5, -5, 5), 0.4) {
		t.Error("unknown space should collide for the conservative checker")
	}
	if c.Checks() == 0 {
		t.Error("checks not counted")
	}
}

func TestLawnmowerCoversArea(t *testing.T) {
	area := geom.NewAABB(geom.V3(0, 0, 0), geom.V3(100, 60, 0))
	p := Lawnmower(LawnmowerRequest{Area: area, Altitude: 20, Spacing: 10, Start: geom.V3(0, 0, 0)})
	if !p.Valid() {
		t.Fatal("empty lawnmower path")
	}
	// All waypoints at the survey altitude and inside the area.
	for _, wp := range p.Waypoints {
		if wp.Z != 20 {
			t.Fatalf("waypoint %v not at survey altitude", wp)
		}
		if wp.X < -1e-9 || wp.X > 100+1e-9 || wp.Y < -1e-9 || wp.Y > 60+1e-9 {
			t.Fatalf("waypoint %v outside the area", wp)
		}
	}
	// Lanes must cover the full width: 60 m at 10 m spacing = 7 lanes, each
	// traversing the 100 m length -> at least 700 m of sweep.
	if p.Length() < 700 {
		t.Errorf("lawnmower path too short: %.0f m", p.Length())
	}
	// Both far edges are visited.
	sawMaxY := false
	for _, wp := range p.Waypoints {
		if math.Abs(wp.Y-60) < 1e-6 {
			sawMaxY = true
		}
	}
	if !sawMaxY {
		t.Error("far edge of the area never covered")
	}
	if CoverageArea(p, 10) < 100*60 {
		t.Errorf("coverage area %.0f below the field size", CoverageArea(p, 10))
	}
}

func TestLawnmowerDegenerateInputs(t *testing.T) {
	if p := Lawnmower(LawnmowerRequest{Area: geom.AABB{}, Altitude: 10, Spacing: 5}); p.Valid() {
		t.Error("degenerate area should give an empty path")
	}
	// Zero spacing falls back to a default rather than looping forever.
	area := geom.NewAABB(geom.V3(0, 0, 0), geom.V3(50, 50, 0))
	if p := Lawnmower(LawnmowerRequest{Area: area, Altitude: 10, Spacing: 0}); !p.Valid() {
		t.Error("zero spacing should still produce a path")
	}
}

func TestLawnmowerSweepsAlongLongerSide(t *testing.T) {
	// A field much longer in Y should sweep along Y (fewer turns).
	area := geom.NewAABB(geom.V3(0, 0, 0), geom.V3(20, 200, 0))
	p := Lawnmower(LawnmowerRequest{Area: area, Altitude: 15, Spacing: 10, Start: geom.V3(0, 0, 0)})
	// Count long segments: they should be the 200 m ones.
	long := 0
	for i := 1; i < len(p.Waypoints); i++ {
		if p.Waypoints[i].Dist(p.Waypoints[i-1]) > 150 {
			long++
		}
	}
	if long < 2 {
		t.Error("sweep direction does not follow the longer side")
	}
}

func TestSelectFrontier(t *testing.T) {
	m := octomap.New(0.5, geom.NewAABB(geom.V3(0, 0, 0), geom.V3(40, 40, 10)))
	// Observe a corridor from the start; the frontier should be ahead of the
	// vehicle, not behind it.
	origin := geom.V3(2, 2, 3)
	for a := -0.4; a <= 0.4; a += 0.05 {
		m.InsertRay(origin, origin.Add(geom.V3(12*math.Cos(a), 12*math.Sin(a), 0)), 15)
	}
	res := SelectFrontier(FrontierRequest{Map: m, Current: origin, Radius: 0.4, Floor: 0.5, Ceiling: 9})
	if !res.Found {
		t.Fatalf("no frontier found: %+v", res)
	}
	if res.Goal.Dist(origin) < 2 {
		t.Errorf("frontier goal %v too close to the vehicle", res.Goal)
	}
	if res.Candidates == 0 || res.Score <= 0 {
		t.Errorf("suspicious frontier result: %+v", res)
	}

	// A nil map reports nothing.
	if r := SelectFrontier(FrontierRequest{}); r.Found || r.Exhausted {
		t.Error("nil map should report neither found nor exhausted")
	}
}

func TestSelectFrontierExhaustedWhenFullyMapped(t *testing.T) {
	small := geom.NewAABB(geom.V3(0, 0, 0), geom.V3(4, 4, 2))
	m := octomap.New(0.5, small)
	// Observe every voxel as free.
	for x := 0.25; x < 4; x += 0.5 {
		for y := 0.25; y < 4; y += 0.5 {
			for z := 0.25; z < 2; z += 0.5 {
				m.MarkFree(geom.V3(x, y, z))
			}
		}
	}
	res := SelectFrontier(FrontierRequest{Map: m, Current: geom.V3(2, 2, 1), Radius: 0.3})
	if !res.Exhausted {
		t.Errorf("fully mapped area should exhaust the frontier, got %+v", res)
	}
}

func TestSmoothProducesFeasibleTrajectory(t *testing.T) {
	p := Path{Waypoints: []geom.Vec3{
		geom.V3(0, 0, 5), geom.V3(20, 0, 5), geom.V3(20, 20, 5), geom.V3(40, 20, 5),
	}}
	opts := DefaultSmoothingOptions()
	traj := Smooth(p, opts)
	if traj.Empty() {
		t.Fatal("empty trajectory")
	}
	if traj.Duration() <= 0 {
		t.Fatal("non-positive duration")
	}
	if traj.MaxSpeed() > opts.MaxVelocity+1e-6 {
		t.Errorf("max speed %v exceeds limit %v", traj.MaxSpeed(), opts.MaxVelocity)
	}
	if traj.MaxAcceleration() > opts.MaxAcceleration+1e-6 {
		t.Errorf("max acceleration %v exceeds limit", traj.MaxAcceleration())
	}
	// The trajectory ends at the final waypoint, at rest.
	if traj.End().Dist(geom.V3(40, 20, 5)) > 0.5 {
		t.Errorf("trajectory ends at %v", traj.End())
	}
	endState := traj.Sample(traj.Duration() + 10)
	if endState.Velocity.Norm() > 1e-9 {
		t.Error("sampling beyond the end should report zero velocity")
	}
	// Length approximately equals the path length.
	if math.Abs(traj.Length()-p.Length()) > p.Length()*0.1 {
		t.Errorf("trajectory length %.1f differs from path length %.1f", traj.Length(), p.Length())
	}
	// Yaw follows the direction of travel on the first leg (+X).
	if math.Abs(traj.Points[1].Yaw) > 0.1 {
		t.Errorf("yaw on first leg = %v, want ~0", traj.Points[1].Yaw)
	}
}

func TestSmoothSizesPointsExactly(t *testing.T) {
	// A lawnmower-like path with a zero-length segment: the samples must land
	// in one allocation of exactly the needed size.
	p := Path{Waypoints: []geom.Vec3{
		geom.V3(0, 0, 5), geom.V3(120, 0, 5), geom.V3(120, 0, 5), geom.V3(120, 8, 5), geom.V3(0, 8, 5),
	}}
	traj := Smooth(p, DefaultSmoothingOptions())
	if len(traj.Points) < 100 || cap(traj.Points) != len(traj.Points) {
		t.Errorf("points len %d cap %d, want an exactly sized buffer", len(traj.Points), cap(traj.Points))
	}
}

func TestSmoothSlowsThroughCorners(t *testing.T) {
	// A right-angle corner: the speed at the corner waypoint must be lower
	// than the straight-line cruise speed.
	p := Path{Waypoints: []geom.Vec3{geom.V3(0, 0, 5), geom.V3(30, 0, 5), geom.V3(30, 30, 5)}}
	opts := DefaultSmoothingOptions()
	traj := Smooth(p, opts)

	// Find the speed when passing nearest to the corner.
	corner := geom.V3(30, 0, 5)
	minDist := math.Inf(1)
	var speedAtCorner float64
	for _, pt := range traj.Points {
		if d := pt.Position.Dist(corner); d < minDist {
			minDist = d
			speedAtCorner = pt.Velocity.Norm()
		}
	}
	if speedAtCorner > opts.MaxVelocity*0.85 {
		t.Errorf("corner speed %.2f not reduced (cruise %.2f)", speedAtCorner, opts.MaxVelocity)
	}
}

func TestSmoothDegenerateInputs(t *testing.T) {
	if !Smooth(Path{}, DefaultSmoothingOptions()).Empty() {
		t.Error("empty path should give empty trajectory")
	}
	single := Path{Waypoints: []geom.Vec3{geom.V3(1, 1, 1)}}
	if !Smooth(single, DefaultSmoothingOptions()).Empty() {
		t.Error("single-waypoint path should give empty trajectory")
	}
	// Zero-value options fall back to defaults.
	p := Path{Waypoints: []geom.Vec3{geom.V3(0, 0, 5), geom.V3(10, 0, 5)}}
	traj := Smooth(p, SmoothingOptions{})
	if traj.Empty() {
		t.Error("zero-value options should still smooth")
	}
}

func TestTrajectorySampleInterpolates(t *testing.T) {
	traj := Trajectory{Points: []TrajectoryPoint{
		{Time: 0, Position: geom.V3(0, 0, 0), Velocity: geom.V3(1, 0, 0)},
		{Time: 2, Position: geom.V3(2, 0, 0), Velocity: geom.V3(1, 0, 0)},
	}}
	mid := traj.Sample(1)
	if !geom.Vec3ApproxEqual(mid.Position, geom.V3(1, 0, 0), 1e-9) {
		t.Errorf("midpoint = %v", mid.Position)
	}
	before := traj.Sample(-1)
	if before.Position != geom.V3(0, 0, 0) {
		t.Error("sampling before start should clamp")
	}
	if (Trajectory{}).Sample(1) != (TrajectoryPoint{}) {
		t.Error("sampling an empty trajectory should return the zero point")
	}
}

func TestTrajectoryMonotonicTimeProperty(t *testing.T) {
	// Property: smoothing any random simple path yields strictly
	// non-decreasing sample times and bounded dynamics.
	f := func(coords []float64) bool {
		p := Path{}
		for i := 0; i+1 < len(coords) && len(p.Waypoints) < 8; i += 2 {
			x := math.Mod(coords[i], 50)
			y := math.Mod(coords[i+1], 50)
			if math.IsNaN(x) || math.IsNaN(y) {
				continue
			}
			p.Waypoints = append(p.Waypoints, geom.V3(x, y, 5))
		}
		if len(p.Waypoints) < 2 {
			return true
		}
		opts := DefaultSmoothingOptions()
		traj := Smooth(p, opts)
		prev := -1.0
		for _, pt := range traj.Points {
			if pt.Time < prev {
				return false
			}
			prev = pt.Time
			if pt.Velocity.Norm() > opts.MaxVelocity+1e-6 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestEstimateFlightTime(t *testing.T) {
	if EstimateFlightTime(0, 5, 3) != 0 {
		t.Error("zero length should take zero time")
	}
	if !math.IsInf(EstimateFlightTime(10, 0, 3), 1) {
		t.Error("zero velocity limit should take forever")
	}
	short := EstimateFlightTime(10, 5, 3)
	long := EstimateFlightTime(100, 5, 3)
	if long <= short {
		t.Error("longer paths should take longer")
	}
	// 100 m at 5 m/s cruise is at least 20 s.
	if long < 20 {
		t.Errorf("flight time %.1f s unreasonably short", long)
	}
}

func TestPathAccessorsEmpty(t *testing.T) {
	var p Path
	if p.Valid() || p.Length() != 0 {
		t.Error("empty path should be invalid with zero length")
	}
	if p.Start() != (geom.Vec3{}) || p.End() != (geom.Vec3{}) {
		t.Error("empty path endpoints should be zero")
	}
}
