package core

import "testing"

// TestReleaseDropsBackend: between runs a Runner keeps its own pool, with
// the NodeOccupancy bound when the pool was built, but no executor. A
// Config.Backend run binds the backend's NodeOccupancy for itself, and
// release drops both, so the Runner holds no backend after it.
func TestReleaseDropsBackend(t *testing.T) {
	var w Runner
	if _, err := w.Run(validConfig(t)); err != nil {
		t.Fatal(err)
	}
	if w.r.pool == nil || w.r.pool.occupancy == nil {
		t.Fatal("a pool run left no pool, or a pool with nothing bound")
	}
	own := w.r.pool
	cfg := validConfig(t)
	cfg.Backend = newPool(1)
	if _, err := w.Run(cfg); err != nil {
		t.Fatal(err)
	}
	if w.r.exec != nil || w.r.occupancy != nil {
		t.Error("the Runner still holds the backend run's executor after release")
	}
	if w.r.pool != own {
		t.Error("a Config.Backend run replaced the Runner's own pool")
	}
}
