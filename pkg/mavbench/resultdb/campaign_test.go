package resultdb

import (
	"context"
	"testing"

	"mavbench/internal/core"
	"mavbench/internal/des"
	"mavbench/internal/env"
	"mavbench/internal/geom"
	"mavbench/internal/sim"
	"mavbench/pkg/mavbench"
)

// quickWorkload is a fast fake workload: one simulated second, then success.
// builds counts world constructions, i.e. real simulations.
type quickWorkload struct {
	name   string
	builds int
}

func (w *quickWorkload) Name() string        { return w.name }
func (w *quickWorkload) Description() string { return "fake workload for store tests" }
func (w *quickWorkload) World(p core.Params) (*env.World, geom.Vec3, error) {
	w.builds++
	return env.BoundedEmptyWorld(40, 20, p.Seed), geom.V3(0, 0, 0), nil
}
func (w *quickWorkload) Setup(s *sim.Simulator, p core.Params) error {
	s.Engine().Schedule(des.Seconds(1), "test/finish", func(*des.Engine) {
		s.CompleteMission(true, "")
	})
	return nil
}

// TestCampaignResultSurvivesReopen is the store's end-to-end contract as a
// campaign's ResultStore: a result a campaign wrote is read back unchanged by
// the next owner of the directory, and a repeat campaign over that store is
// served from it without simulating again.
func TestCampaignResultSurvivesReopen(t *testing.T) {
	wl := &quickWorkload{name: "resultdb_campaign_reopen"}
	core.Register(wl)
	spec, err := mavbench.NewSpec(wl.name, mavbench.WithSeed(3), mavbench.WithMaxMissionTime(30))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	first := openTestStore(t, dir)
	fresh, err := mavbench.NewCampaign(spec).SetStore(first).SetWorldCache(nil).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !fresh[0].OK() || fresh[0].Cached {
		t.Fatalf("first run = %+v, want a fresh success", fresh[0])
	}
	got, ok := first.Get(spec.Hash())
	if !ok || !sameResult(got, fresh[0]) {
		t.Fatalf("store did not hold the campaign's result (ok=%v)", ok)
	}
	if _, ok := first.Get(testHash(1)); ok {
		t.Error("unknown hash reported as hit")
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}

	// The next owner of the directory sees the entry unchanged.
	second := openTestStore(t, dir)
	if got, ok := second.Get(spec.Hash()); !ok || !sameResult(got, fresh[0]) {
		t.Fatalf("reopened store: got %+v ok=%v", got, ok)
	}
	built := wl.builds
	served, err := mavbench.NewCampaign(spec).SetStore(second).SetWorldCache(nil).Collect(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !served[0].Cached {
		t.Error("repeat campaign not served from the reopened store")
	}
	if wl.builds != built {
		t.Errorf("repeat campaign re-simulated: %d -> %d world builds", built, wl.builds)
	}
	served[0].Cached = false
	if !sameResult(served[0], fresh[0]) {
		t.Errorf("store-served result differs from the fresh one:\n got %+v\nwant %+v", served[0], fresh[0])
	}
}
