package planning

import (
	"math"

	"mavbench/internal/geom"
)

// TrajectoryPoint is one sample of a time-parameterised trajectory: the
// "multiDOF" points the control stage consumes.
type TrajectoryPoint struct {
	Time         float64 // seconds from trajectory start
	Position     geom.Vec3
	Velocity     geom.Vec3
	Acceleration geom.Vec3
	Yaw          float64
}

// Trajectory is a sampled, dynamically feasible trajectory.
type Trajectory struct {
	Points []TrajectoryPoint
}

// Duration returns the trajectory's total time.
func (t Trajectory) Duration() float64 {
	if len(t.Points) == 0 {
		return 0
	}
	return t.Points[len(t.Points)-1].Time
}

// Length returns the trajectory's path length.
func (t Trajectory) Length() float64 {
	total := 0.0
	for i := 1; i < len(t.Points); i++ {
		total += t.Points[i].Position.Dist(t.Points[i-1].Position)
	}
	return total
}

// Empty reports whether the trajectory has no points.
func (t Trajectory) Empty() bool { return len(t.Points) == 0 }

// End returns the final position.
func (t Trajectory) End() geom.Vec3 {
	if len(t.Points) == 0 {
		return geom.Vec3{}
	}
	return t.Points[len(t.Points)-1].Position
}

// Sample returns the trajectory state at the given time, interpolating
// between samples and clamping beyond the ends.
func (t Trajectory) Sample(at float64) TrajectoryPoint {
	if len(t.Points) == 0 {
		return TrajectoryPoint{}
	}
	if at <= t.Points[0].Time {
		return t.Points[0]
	}
	last := t.Points[len(t.Points)-1]
	if at >= last.Time {
		end := last
		end.Velocity = geom.Vec3{}
		end.Acceleration = geom.Vec3{}
		return end
	}
	// Binary search for the bracketing samples.
	lo, hi := 0, len(t.Points)-1
	for hi-lo > 1 {
		mid := (lo + hi) / 2
		if t.Points[mid].Time <= at {
			lo = mid
		} else {
			hi = mid
		}
	}
	a, b := t.Points[lo], t.Points[hi]
	span := b.Time - a.Time
	if span <= 0 {
		return a
	}
	f := (at - a.Time) / span
	return TrajectoryPoint{
		Time:         at,
		Position:     a.Position.Lerp(b.Position, f),
		Velocity:     a.Velocity.Lerp(b.Velocity, f),
		Acceleration: a.Acceleration.Lerp(b.Acceleration, f),
		Yaw:          a.Yaw + geom.AngleDiff(b.Yaw, a.Yaw)*f,
	}
}

// MaxSpeed returns the highest velocity magnitude along the trajectory.
func (t Trajectory) MaxSpeed() float64 {
	max := 0.0
	for _, p := range t.Points {
		if s := p.Velocity.Norm(); s > max {
			max = s
		}
	}
	return max
}

// MaxAcceleration returns the highest acceleration magnitude along the
// trajectory.
func (t Trajectory) MaxAcceleration() float64 {
	max := 0.0
	for _, p := range t.Points {
		if a := p.Acceleration.Norm(); a > max {
			max = a
		}
	}
	return max
}

// SmoothingOptions control the path-smoothing kernel.
type SmoothingOptions struct {
	// MaxVelocity and MaxAcceleration bound the trajectory's dynamics.
	MaxVelocity     float64
	MaxAcceleration float64
	// CornerSlowdown in [0,1] scales the velocity through sharp corners
	// (1 = no slow-down).
	CornerSlowdown float64
	// SampleInterval is the time between emitted trajectory points.
	SampleInterval float64
	// YawFollowsPath aligns the yaw with the direction of travel.
	YawFollowsPath bool
}

// DefaultSmoothingOptions matches the benchmark configuration.
func DefaultSmoothingOptions() SmoothingOptions {
	return SmoothingOptions{
		MaxVelocity:     6,
		MaxAcceleration: 3.43,
		CornerSlowdown:  0.4,
		SampleInterval:  0.1,
		YawFollowsPath:  true,
	}
}

// Smooth converts a piecewise-linear path into a time-parameterised
// trajectory with a trapezoidal velocity profile per segment and reduced
// speed through sharp corners — the paper's "path smoothening" kernel, which
// exists precisely because piecewise paths with sharp turns demand
// high-acceleration (energy-hungry) manoeuvres.
func Smooth(path Path, opts SmoothingOptions) Trajectory {
	var traj Trajectory
	if len(path.Waypoints) < 2 {
		return traj
	}
	if opts.MaxVelocity <= 0 {
		opts.MaxVelocity = 6
	}
	if opts.MaxAcceleration <= 0 {
		opts.MaxAcceleration = 3.43
	}
	if opts.SampleInterval <= 0 {
		opts.SampleInterval = 0.1
	}
	if opts.CornerSlowdown <= 0 || opts.CornerSlowdown > 1 {
		opts.CornerSlowdown = 0.4
	}

	// Per-waypoint speed limits: slow through sharp corners, stop at the end.
	wps := path.Waypoints
	limits := make([]float64, len(wps))
	limits[0] = 0
	limits[len(wps)-1] = 0
	for i := 1; i < len(wps)-1; i++ {
		a := wps[i].Sub(wps[i-1]).Unit()
		b := wps[i+1].Sub(wps[i]).Unit()
		cosTurn := geom.Clamp(a.Dot(b), -1, 1)
		// cosTurn = 1: straight (full speed); -1: U-turn (full slow-down).
		factor := opts.CornerSlowdown + (1-opts.CornerSlowdown)*(cosTurn+1)/2
		limits[i] = opts.MaxVelocity * factor
	}

	// Profile every segment first so the samples go into one exactly sized
	// allocation: a coverage flight samples thousands of points, and growing
	// the slice by doubling would churn large, short-lived buffers.
	profiles := make([]trapezoidProfile, len(wps))
	samples := 1
	for i := 1; i < len(wps); i++ {
		if length := wps[i].Sub(wps[i-1]).Norm(); length >= 1e-9 {
			profiles[i] = trapezoid(length, limits[i-1], limits[i], opts.MaxVelocity, opts.MaxAcceleration)
			for tau := 0.0; tau < profiles[i].duration; tau += opts.SampleInterval {
				samples++
			}
		}
	}
	traj.Points = make([]TrajectoryPoint, 0, samples)

	t := 0.0
	for i := 1; i < len(wps); i++ {
		seg := wps[i].Sub(wps[i-1])
		length := seg.Norm()
		if length < 1e-9 {
			continue
		}
		dir := seg.Scale(1 / length)
		profile := profiles[i]

		yaw := dir.Yaw()
		for tau := 0.0; tau < profile.duration; tau += opts.SampleInterval {
			dist, vel, acc := profile.at(tau)
			p := TrajectoryPoint{
				Time:         t + tau,
				Position:     wps[i-1].Add(dir.Scale(dist)),
				Velocity:     dir.Scale(vel),
				Acceleration: dir.Scale(acc),
			}
			if opts.YawFollowsPath {
				p.Yaw = yaw
			}
			traj.Points = append(traj.Points, p)
		}
		t += profile.duration
	}
	// Final point: at rest at the goal.
	traj.Points = append(traj.Points, TrajectoryPoint{
		Time:     t,
		Position: wps[len(wps)-1],
		Yaw:      traj.lastYaw(),
	})
	return traj
}

func (t Trajectory) lastYaw() float64 {
	if len(t.Points) == 0 {
		return 0
	}
	return t.Points[len(t.Points)-1].Yaw
}

// trapezoidProfile describes motion along one segment: accelerate from
// vStart toward vPeak, cruise, decelerate to vEnd.
type trapezoidProfile struct {
	vStart, vPeak, vEnd float64
	accel               float64
	tAccel, tCruise     float64
	tDecel              float64
	duration            float64
	dAccel, dCruise     float64
}

func trapezoid(length, vStart, vEnd, vMax, aMax float64) trapezoidProfile {
	p := trapezoidProfile{vStart: vStart, vEnd: vEnd, accel: aMax}
	// Peak velocity limited by the distance available to accelerate and
	// decelerate: vPeak^2 = (2*a*L + vStart^2 + vEnd^2) / 2.
	vPeak := math.Sqrt((2*aMax*length + vStart*vStart + vEnd*vEnd) / 2)
	if vPeak > vMax {
		vPeak = vMax
	}
	if vPeak < vStart {
		vPeak = vStart
	}
	if vPeak < vEnd {
		vPeak = vEnd
	}
	p.vPeak = vPeak
	p.tAccel = (vPeak - vStart) / aMax
	p.tDecel = (vPeak - vEnd) / aMax
	p.dAccel = vStart*p.tAccel + 0.5*aMax*p.tAccel*p.tAccel
	dDecel := vEnd*p.tDecel + 0.5*aMax*p.tDecel*p.tDecel
	p.dCruise = length - p.dAccel - dDecel
	if p.dCruise < 0 {
		p.dCruise = 0
	}
	if vPeak > 0 {
		p.tCruise = p.dCruise / vPeak
	}
	p.duration = p.tAccel + p.tCruise + p.tDecel
	if p.duration <= 0 {
		// Degenerate (zero-length) segment.
		p.duration = 1e-6
	}
	return p
}

// at returns distance, velocity and acceleration at time tau into the
// profile.
func (p trapezoidProfile) at(tau float64) (dist, vel, acc float64) {
	switch {
	case tau <= p.tAccel:
		vel = p.vStart + p.accel*tau
		dist = p.vStart*tau + 0.5*p.accel*tau*tau
		acc = p.accel
	case tau <= p.tAccel+p.tCruise:
		dt := tau - p.tAccel
		vel = p.vPeak
		dist = p.dAccel + p.vPeak*dt
		acc = 0
	default:
		dt := tau - p.tAccel - p.tCruise
		vel = p.vPeak - p.accel*dt
		if vel < 0 {
			vel = 0
		}
		dist = p.dAccel + p.dCruise + p.vPeak*dt - 0.5*p.accel*dt*dt
		acc = -p.accel
	}
	return dist, vel, acc
}

// EstimateFlightTime returns how long the vehicle needs to fly a path of the
// given length with the given velocity/acceleration limits (accelerate,
// cruise, decelerate), used by mission planners for budgeting.
func EstimateFlightTime(length, vMax, aMax float64) float64 {
	if length <= 0 {
		return 0
	}
	if vMax <= 0 || aMax <= 0 {
		return math.Inf(1)
	}
	p := trapezoid(length, 0, 0, vMax, aMax)
	return p.duration
}
