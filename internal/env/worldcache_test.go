package env

import (
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mavbench/internal/geom"
)

// buildTestWorld makes a world with consumed RNG state, static and dynamic
// obstacles, and some elapsed time — every axis Clone must reproduce.
func buildTestWorld(seed int64) *World {
	w, err := BuildFamilyWorld("urban", seed, 0.5, DefaultKnobs())
	if err != nil {
		panic(err)
	}
	// Consume extra RNG draws so the clone has real state to replay.
	for i := 0; i < 17; i++ {
		w.SamplePoint()
	}
	w.Step(3.7)
	return w
}

// worldFingerprint captures everything observable about a world.
func worldFingerprint(w *World) []any {
	var obs []Obstacle
	for _, o := range w.Obstacles() {
		obs = append(obs, *o)
	}
	return []any{w.Name, w.Bounds, w.GroundZ, w.Elapsed(), w.Seed(), obs}
}

func TestCloneIsBitIdentical(t *testing.T) {
	orig := buildTestWorld(99)
	clone := orig.Clone()

	if !reflect.DeepEqual(worldFingerprint(orig), worldFingerprint(clone)) {
		t.Fatal("clone differs from original immediately after cloning")
	}
	// Future behaviour must match too: same RNG stream, same dynamics.
	for i := 0; i < 50; i++ {
		a, b := orig.SamplePoint(), clone.SamplePoint()
		if a != b {
			t.Fatalf("RNG stream diverged at draw %d: %v vs %v", i, a, b)
		}
		orig.Step(0.25)
		clone.Step(0.25)
	}
	if !reflect.DeepEqual(worldFingerprint(orig), worldFingerprint(clone)) {
		t.Fatal("clone diverged from original after stepping")
	}
}

// TestCloneRandSourceFastPath pins World.Clone's structural-copy fast path
// to the toolchain: math/rand's seeded source must stay a pointer to a plain
// struct that cloneRandSource can copy, and the copy must continue the exact
// sequence a reseed-and-replay would. A Go release that changes the source's
// shape fails here instead of silently moving every warm world provision
// onto the much slower replay path.
func TestCloneRandSourceFastPath(t *testing.T) {
	const seed, drawn = 42, 137
	src := rand.NewSource(seed)
	for i := 0; i < drawn; i++ {
		src.Int63()
	}
	copied, ok := cloneRandSource(src)
	if !ok {
		t.Fatalf("cloneRandSource(%T) reported !ok: World.Clone would replay every draw on this toolchain", src)
	}
	replayed := replaySource(seed, drawn)
	for i := 0; i < 1000; i++ {
		if got, want := copied.Int63(), replayed.Int63(); got != want {
			t.Fatalf("draw %d after %d: copy %d, replay %d", i, drawn, got, want)
		}
	}
}

func TestCloneIsolation(t *testing.T) {
	orig := buildTestWorld(7)
	before := worldFingerprint(orig)
	clone := orig.Clone()
	// Mutate the clone hard; the original must not move.
	clone.Step(100)
	clone.SamplePoint()
	clone.AddObstacle(KindStructure, geom.NewAABB(geom.V3(0, 0, 0), geom.V3(1, 1, 1)), "intruder")
	if !reflect.DeepEqual(before, worldFingerprint(orig)) {
		t.Fatal("mutating a clone changed the original")
	}
}

func TestWorldCacheHitsAndClones(t *testing.T) {
	c := NewWorldCache()
	builds := 0
	build := func() (*World, geom.Vec3, error) {
		builds++
		return buildTestWorld(5), geom.V3(1, 2, 0), nil
	}
	w1, start, err := c.GetOrBuild("aa11", build)
	if err != nil {
		t.Fatal(err)
	}
	if start != geom.V3(1, 2, 0) {
		t.Fatalf("start = %v", start)
	}
	w2, _, err := c.GetOrBuild("aa11", build)
	if err != nil {
		t.Fatal(err)
	}
	if builds != 1 {
		t.Fatalf("builds = %d, want 1", builds)
	}
	if w1 == w2 {
		t.Fatal("cache handed out the same world twice (must clone)")
	}
	// The two clones must behave identically but independently.
	if a, b := w1.SamplePoint(), w2.SamplePoint(); a != b {
		t.Fatalf("clones diverge: %v vs %v", a, b)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestWorldCacheBuildError(t *testing.T) {
	c := NewWorldCache()
	boom := errors.New("boom")
	if _, _, err := c.GetOrBuild("bb22", func() (*World, geom.Vec3, error) {
		return nil, geom.Vec3{}, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if st := c.Stats(); st.Entries != 0 || st.Misses != 1 {
		t.Fatalf("error cached something: %+v", st)
	}
}

// TestWorldCacheConcurrentMissesBuildOnce pins build dedup: lookups of one
// key that arrive while its build is in flight wait for that build instead of
// starting their own, and each still gets a private clone.
func TestWorldCacheConcurrentMissesBuildOnce(t *testing.T) {
	c := NewWorldCache()
	const callers = 8
	release := make(chan struct{})
	var builds atomic.Int64
	build := func() (*World, geom.Vec3, error) {
		builds.Add(1)
		<-release
		return buildTestWorld(3), geom.V3(1, 2, 3), nil
	}

	worlds := make([]*World, callers)
	var wg sync.WaitGroup
	for i := range worlds {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w, start, err := c.GetOrBuild("cc33", build)
			if err != nil || start != geom.V3(1, 2, 3) {
				t.Errorf("caller %d: start %v, err %v", i, start, err)
			}
			worlds[i] = w
		}(i)
	}
	// Hold the build open for a moment so the other callers queue behind it;
	// a caller that arrives after the build is a plain hit, which passes too.
	for {
		c.mu.Lock()
		_, building := c.pending["cc33"]
		c.mu.Unlock()
		if building {
			break
		}
		runtime.Gosched()
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := builds.Load(); n != 1 {
		t.Fatalf("%d concurrent misses built the world %d times, want 1", callers, n)
	}
	if st := c.Stats(); st.Misses != 1 || st.Hits != callers-1 || st.Entries != 1 {
		t.Fatalf("stats = %+v, want 1 miss and %d hits", st, callers-1)
	}
	for i := 1; i < callers; i++ {
		if worlds[i] == worlds[0] {
			t.Fatalf("callers 0 and %d share one world; every caller needs a clone", i)
		}
	}
}

// TestWorldCachePanickingBuildReleasesKey pins the deferred cleanup of build
// dedup: a build that panics hands the lookup queued behind it an error, and
// the next lookup of that key builds at once instead of waiting on it.
func TestWorldCachePanickingBuildReleasesKey(t *testing.T) {
	c := NewWorldCache()
	release := make(chan struct{})
	panicked := make(chan any, 1)
	go func() {
		defer func() { panicked <- recover() }()
		c.GetOrBuild("dd44", func() (*World, geom.Vec3, error) {
			<-release
			panic("world build failed")
		})
	}()
	for !func() bool {
		c.mu.Lock()
		defer c.mu.Unlock()
		_, building := c.pending["dd44"]
		return building
	}() {
		runtime.Gosched()
	}

	// A waiter that arrives only after the panic builds on its own, which
	// is also fine; one queued behind the build must get an error.
	var waiterBuilt atomic.Bool
	waiter := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrBuild("dd44", func() (*World, geom.Vec3, error) {
			waiterBuilt.Store(true)
			return buildTestWorld(4), geom.Vec3{}, nil
		})
		waiter <- err
	}()
	time.Sleep(20 * time.Millisecond) // let the waiter queue behind the build
	close(release)
	if r := <-panicked; r == nil {
		t.Fatal("the building caller did not see its build's panic")
	}
	if err := <-waiter; err == nil && !waiterBuilt.Load() {
		t.Error("a lookup queued behind a panicking build got no error")
	}

	done := make(chan error, 1)
	go func() {
		_, _, err := c.GetOrBuild("dd44", func() (*World, geom.Vec3, error) {
			return buildTestWorld(4), geom.Vec3{}, nil
		})
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("lookup stayed wedged behind a panicked build")
	}
	if !c.Contains("dd44") {
		t.Error("the rebuilt world was not cached")
	}
}

func TestWorldCacheLRUEviction(t *testing.T) {
	// Footprint per entry is worldBase + n*perObstacle; bound the cache so
	// only two small worlds fit.
	mk := func(seed int64) func() (*World, geom.Vec3, error) {
		return func() (*World, geom.Vec3, error) {
			w := New("tiny", geom.NewAABB(geom.V3(0, 0, 0), geom.V3(10, 10, 10)), seed)
			return w, geom.Vec3{}, nil
		}
	}
	c := NewWorldCache(WithCacheMaxBytes(2 * 512))
	if _, _, err := c.GetOrBuild("01", mk(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrBuild("02", mk(2)); err != nil {
		t.Fatal(err)
	}
	// Touch 01 so 02 is the LRU victim.
	if _, _, err := c.GetOrBuild("01", mk(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.GetOrBuild("03", mk(3)); err != nil {
		t.Fatal(err)
	}
	if !c.Contains("01") || c.Contains("02") || !c.Contains("03") {
		t.Fatalf("eviction picked the wrong victim: 01=%t 02=%t 03=%t",
			c.Contains("01"), c.Contains("02"), c.Contains("03"))
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}
