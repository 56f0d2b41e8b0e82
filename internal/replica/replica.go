// Package replica holds the cluster-tier glue that cannot live in
// internal/server (which must not import internal/client — the client
// depends on the server's wire types): the client-backed PeerFetcher a
// shard's ring migration acquires entries through, the Owners-based corpus
// subsetting shards run at bootstrap, and the driver that sequences a live
// ring update across a router and its shards.
package replica

import (
	"context"
	"fmt"
	"io"
	"time"

	"github.com/fastrepro/fast/internal/client"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/placement"
	"github.com/fastrepro/fast/internal/server"
)

// Fetcher implements server.PeerFetcher over fastd clients: it retrieves
// a peer shard's current index as a point-in-time engine by streaming the
// peer's hot snapshot over GET /v1/snapshot. Every fastd serves that
// endpoint, and it only reads the peer's state: a migration never writes a
// peer's persistent snapshot generations.
type Fetcher struct {
	// Resolve maps a shard index to its client. Indexes follow the
	// placement ring's shard numbers.
	Resolve func(shard int) (*client.Client, error)
}

// NewFetcher builds a Fetcher over a static peer URL list (fastd's
// -peers flag). URLs are indexed by shard number; this shard's own slot
// is never resolved (a shard does not fetch from itself).
func NewFetcher(peerURLs []string, opts ...client.Option) *Fetcher {
	return &Fetcher{
		Resolve: func(shard int) (*client.Client, error) {
			if shard < 0 || shard >= len(peerURLs) || peerURLs[shard] == "" {
				return nil, fmt.Errorf("replica: no peer URL configured for shard %d", shard)
			}
			return client.New(peerURLs[shard], opts...), nil
		},
	}
}

// FetchEngine implements server.PeerFetcher.
func (f *Fetcher) FetchEngine(ctx context.Context, shard int) (*core.Engine, error) {
	if f.Resolve == nil {
		return nil, fmt.Errorf("replica: fetcher has no resolver")
	}
	c, err := f.Resolve(shard)
	if err != nil {
		return nil, err
	}
	pr, pw := io.Pipe()
	defer pr.Close() // unblocks the writer if ReadEngine stops early
	go func() {
		_, err := c.Snapshot(ctx, pw)
		pw.CloseWithError(err)
	}()
	return core.ReadEngine(pr)
}

// Subset deletes from eng every entry the shard does not own under the
// ring at the given replica factor — the bootstrap step that turns a
// commonly built union engine into one shard's corpus. With replicas > 1
// a shard keeps every id whose owner set it belongs to, not just the ids
// it is primary for; subsetting by Owner alone (the pre-replica bug)
// silently dropped the copies replica reads depend on.
func Subset(eng *core.Engine, ring *placement.Ring, replicas, shard int) (kept, dropped int, err error) {
	for _, id := range eng.IDs() {
		if ring.OwnedBy(id, replicas, shard) {
			kept++
			continue
		}
		if err := eng.Delete(id); err != nil {
			return kept, dropped, fmt.Errorf("replica: subsetting shard %d: %w", shard, err)
		}
		dropped++
	}
	return kept, dropped, nil
}

// RingUpdateOptions parameterizes a live ring update.
type RingUpdateOptions struct {
	// Router is the front tier, nil when the cluster runs without one.
	Router *client.Client
	// Shards are the shard clients, indexed by ring shard number. Required.
	Shards []*client.Client
	// Ring is the target placement generation; its epoch must advance past
	// the cluster's current one.
	Ring placement.Config
	// Replicas is the target replica factor (default 1).
	Replicas int
	// PollInterval is the shard-readiness polling cadence; 0 means 200ms.
	PollInterval time.Duration
}

// RingUpdateReport summarizes a completed update.
type RingUpdateReport struct {
	Epoch       uint64 `json:"epoch"`
	Fingerprint uint64 `json:"fingerprint"`
	Replicas    int    `json:"replicas"`
	Acquired    []int  `json:"acquired"` // per shard: entries adopted from peers
	Shed        []int  `json:"shed"`     // per shard: entries dropped at commit
}

// RingUpdate drives the live reconfiguration protocol end to end:
//
//	router prepare → shard prepare (all) → wait until every shard is
//	ready (the cluster-wide acquire barrier) → shard commit (all) →
//	router commit.
//
// The ordering carries the safety argument: the router double-reads and
// double-writes from the first step, no shard sheds an entry until every
// shard holds what it will own (so the double-read always finds every
// key), and single-ring routing resumes only after every shard serves the
// new placement. A failure leaves the cluster mid-protocol but always
// consistent — every phase is idempotent, so re-running RingUpdate with
// the same target resumes, and a shard reporting "failed" restarts its
// acquire on re-prepare. Bound the total wait with ctx.
func RingUpdate(ctx context.Context, o RingUpdateOptions) (RingUpdateReport, error) {
	rep := RingUpdateReport{Epoch: o.Ring.Epoch, Replicas: o.Replicas}
	if len(o.Shards) == 0 {
		return rep, fmt.Errorf("replica: ring update needs shard clients")
	}
	target, err := placement.New(o.Ring)
	if err != nil {
		return rep, err
	}
	rep.Fingerprint = target.Fingerprint()
	if o.Replicas < 1 {
		rep.Replicas = 1
	}
	poll := o.PollInterval
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	wire := server.RingConfigWire{
		Shards:   o.Ring.Shards,
		VNodes:   o.Ring.VNodes,
		Seed:     o.Ring.Seed,
		Epoch:    o.Ring.Epoch,
		Replicas: rep.Replicas,
	}
	rep.Acquired = make([]int, len(o.Shards))
	rep.Shed = make([]int, len(o.Shards))

	// 1. Router prepare: double-read/double-write from here on.
	if o.Router != nil {
		if _, err := o.Router.RingPhase(ctx, server.RingUpdateRequest{Phase: "prepare", Ring: wire}); err != nil {
			return rep, fmt.Errorf("replica: router prepare: %w", err)
		}
	}
	// 2. Shard prepare: each starts its background acquire.
	for i, sc := range o.Shards {
		if _, err := sc.RingPhase(ctx, server.RingUpdateRequest{Phase: "prepare", Ring: wire}); err != nil {
			return rep, fmt.Errorf("replica: shard %d prepare: %w", i, err)
		}
	}
	// 3. Barrier: every shard must finish acquiring before ANY shard may
	// shed — a shard that shed early could be the only holder of an entry
	// a slower peer still needs to adopt.
	ready := make([]bool, len(o.Shards))
	for {
		allReady := true
		for i, sc := range o.Shards {
			if ready[i] {
				continue
			}
			st, err := sc.RingStatus(ctx)
			if err != nil {
				return rep, fmt.Errorf("replica: polling shard %d: %w", i, err)
			}
			switch st.State {
			case "ready":
				ready[i] = true
				rep.Acquired[i] = st.Acquired
			case "failed":
				return rep, fmt.Errorf("replica: shard %d migration failed: %s (re-run to retry, or abort)", i, st.LastError)
			default:
				allReady = false
			}
		}
		if allReady {
			break
		}
		select {
		case <-ctx.Done():
			return rep, fmt.Errorf("replica: waiting for shard acquires: %w", ctx.Err())
		case <-time.After(poll):
		}
	}
	// 4. Shard commit: shed and swap.
	for i, sc := range o.Shards {
		st, err := sc.RingPhase(ctx, server.RingUpdateRequest{Phase: "commit", Ring: wire})
		if err != nil {
			return rep, fmt.Errorf("replica: shard %d commit: %w", i, err)
		}
		rep.Shed[i] = st.Shed
	}
	// 5. Router commit: single-ring routing under the new epoch.
	if o.Router != nil {
		if _, err := o.Router.RingPhase(ctx, server.RingUpdateRequest{Phase: "commit", Ring: wire}); err != nil {
			return rep, fmt.Errorf("replica: router commit: %w", err)
		}
	}
	return rep, nil
}
