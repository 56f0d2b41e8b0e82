package cluster

import (
	"testing"

	"github.com/fastrepro/fast/internal/placement"
)

// TestRouteMatchesPlacementRing pins the contract the real cluster tier
// depends on: the simulator's Route and an independently constructed
// placement.Ring with the same parameters assign every key to the same
// shard, so policies validated in simulation transfer to the networked
// router unchanged.
func TestRouteMatchesPlacementRing(t *testing.T) {
	cfg := Config{Nodes: 7, CoresPerNode: 2, PlacementVNodes: 48, PlacementSeed: 99}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ring, err := placement.New(placement.Config{Shards: 7, VNodes: 48, Seed: 99})
	if err != nil {
		t.Fatalf("placement.New: %v", err)
	}
	if c.ring.Fingerprint() != ring.Fingerprint() {
		t.Fatalf("simulator ring fingerprint %x != standalone ring %x",
			c.ring.Fingerprint(), ring.Fingerprint())
	}
	for k := uint64(0); k < 20_000; k++ {
		if got, want := c.Route(k), ring.Owner(k); got != want {
			t.Fatalf("Route(%d) = %d, placement ring says %d", k, got, want)
		}
	}
}
