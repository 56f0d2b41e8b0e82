package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/placement"
)

// Live ring reconfiguration, shard side.
//
// A shard in a replicated cluster keeps exactly the entries it owns under
// the placement ring: {id : shard ∈ Owners(id, replicas)}. Changing the
// ring (new seed, epoch, vnode count — the shard count is fixed for now)
// therefore means moving entries between shards, and doing it live means
// the move must never create a window where some id is resident nowhere.
// The protocol, driven by fastctl ring-update (see internal/replica):
//
//	prepare   The shard validates the pending ring (epoch must advance),
//	          adopts it as pending, and starts a background acquire: it
//	          fetches every peer's index (via the chunk-diff catch-up
//	          where available) and InsertSummary-adopts each entry it
//	          will own under the pending ring but does not yet hold.
//	          The current ring keeps serving; acquired entries are
//	          duplicates other owners still hold, so answers are
//	          unchanged (the router's merge dedups identical entries).
//	ready     Acquire finished. The shard now holds its entries under
//	          BOTH rings. It reports state "ready" and waits.
//	commit    Only accepted in "ready", and only issued by the driver
//	          after EVERY shard reported ready — the cluster-wide
//	          barrier that makes shedding safe: no shard drops an entry
//	          until all its new owners hold it. The shard sheds entries
//	          it does not own under the pending ring and swaps
//	          current ← pending.
//	abort     Drops the pending ring. Acquired entries remain as
//	          harmless duplicates; the next successful commit sheds
//	          them.
//
// Crash/fault behavior: a failure before commit leaves the current ring
// fully intact (the acquire only ever ADDS duplicate entries); a failure
// mid-shed leaves some no-longer-owned entries deleted — all of which are
// held by their new owners (the barrier ran), so a re-issued commit
// simply resumes shedding. Both epochs stay individually consistent at
// every step, which the crash-matrix test drives through the
// shard/ring-install and shard/migrate failpoints.

// PeerFetcher retrieves another shard's current index as a point-in-time
// engine. internal/replica provides the client-backed implementation
// (chunk-diff catch-up into a scratch store, falling back to a streaming
// snapshot); it lives outside this package because internal/client depends
// on the server's wire types.
type PeerFetcher interface {
	FetchEngine(ctx context.Context, shard int) (*core.Engine, error)
}

// ShardConfig makes a Server placement-aware: it serves /v1/ring and
// subsets/migrates by ring ownership.
type ShardConfig struct {
	// Index is this shard's position on the ring; in [0, Ring.Shards).
	Index int
	// Ring is the placement generation the shard booted with.
	Ring placement.Config
	// Replicas is the replica factor: each id lives on its Replicas
	// ring-order owners. Clamped to [1, Ring.Shards].
	Replicas int
	// Fetcher acquires peer indexes during migration. Required for ring
	// updates on multi-shard rings; a nil fetcher fails migrations (the
	// current ring keeps serving).
	Fetcher PeerFetcher
}

// migrateFetchTimeout bounds one peer fetch during a background acquire.
const migrateFetchTimeout = 5 * time.Minute

// Ring-manager states.
const (
	ringSteady    = "steady"
	ringMigrating = "migrating"
	ringReady     = "ready"
	ringFailed    = "failed"
)

// shardRing is the per-shard reconfiguration state machine. All fields are
// guarded by the server's ringMu; the background acquire goroutine only
// touches them through the guarded setters below.
type shardRing struct {
	index    int
	replicas int // current replica factor
	cur      *placement.Ring

	state           string
	pending         *placement.Ring
	pendingReplicas int
	gen             int // prepare generation; stale acquire goroutines no-op
	acquired        int
	shed            int
	lastErr         string
}

func newShardRing(cfg ShardConfig) (*shardRing, error) {
	ring, err := placement.New(cfg.Ring)
	if err != nil {
		return nil, fmt.Errorf("server: shard ring: %w", err)
	}
	if cfg.Index < 0 || cfg.Index >= ring.Shards() {
		return nil, fmt.Errorf("server: shard index %d out of range [0, %d)", cfg.Index, ring.Shards())
	}
	n := cfg.Replicas
	if n < 1 {
		n = 1
	}
	if n > ring.Shards() {
		n = ring.Shards()
	}
	return &shardRing{index: cfg.Index, replicas: n, cur: ring, state: ringSteady}, nil
}

// ringWire converts a ring + replica factor back to its wire form.
func ringWire(r *placement.Ring, replicas int) RingConfigWire {
	cfg := r.Config()
	return RingConfigWire{Shards: cfg.Shards, VNodes: cfg.VNodes, Seed: cfg.Seed, Epoch: cfg.Epoch, Replicas: replicas}
}

// ringStatusLocked assembles the status document. Callers hold s.ringMu.
func (s *Server) ringStatusLocked() *RingStatusResponse {
	sr := s.ring
	st := &RingStatusResponse{
		Enabled:            true,
		ShardIndex:         sr.index,
		State:              sr.state,
		Current:            ringWire(sr.cur, sr.replicas),
		CurrentFingerprint: sr.cur.Fingerprint(),
		Acquired:           sr.acquired,
		Shed:               sr.shed,
		LastError:          sr.lastErr,
	}
	if sr.pending != nil {
		pw := ringWire(sr.pending, sr.pendingReplicas)
		st.Pending = &pw
		st.PendingFingerprint = sr.pending.Fingerprint()
	}
	return st
}

// RingStatus returns the shard's placement state, or nil when the server
// does not run in shard mode.
func (s *Server) RingStatus() *RingStatusResponse {
	if s.ring == nil {
		return nil
	}
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	return s.ringStatusLocked()
}

// handleRing serves GET (status) and POST (prepare/commit/abort) /v1/ring.
func (s *Server) handleRing(w http.ResponseWriter, r *http.Request) {
	if s.ring == nil {
		writeError(w, http.StatusNotImplemented, "server is not running in shard mode (start fastd with -shard-count)")
		return
	}
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, s.RingStatus())
	case http.MethodPost:
		if s.draining.Load() {
			writeError(w, http.StatusServiceUnavailable, "server is draining")
			return
		}
		var req RingUpdateRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
		st, err := s.ringPhase(req)
		if err != nil {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

// ringPhase executes one protocol phase.
func (s *Server) ringPhase(req RingUpdateRequest) (*RingStatusResponse, error) {
	switch strings.ToLower(req.Phase) {
	case "prepare":
		return s.ringPrepare(req.Ring)
	case "commit":
		return s.ringCommit(req.Ring)
	case "abort":
		return s.ringAbort()
	default:
		return nil, fmt.Errorf("server: unknown ring phase %q (want prepare, commit or abort)", req.Phase)
	}
}

func (s *Server) ringPrepare(wire RingConfigWire) (*RingStatusResponse, error) {
	next, err := placement.New(placement.Config{Shards: wire.Shards, VNodes: wire.VNodes, Seed: wire.Seed, Epoch: wire.Epoch})
	if err != nil {
		return nil, err
	}
	nrep := wire.Replicas
	if nrep < 1 {
		nrep = 1
	}
	if nrep > next.Shards() {
		nrep = next.Shards()
	}

	// Peers acquire entries from this shard's /v1/snapshot, which carries
	// the hot tier only: entries held cold would never reach their new
	// owners, and the commit would then shed them here.
	if s.Engine().Stats().Tiered.Enabled {
		return nil, errors.New("server: live ring updates do not support a cold tier (fastd -cold-dir); the shard's cold entries would be lost")
	}

	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	sr := s.ring
	if next.Shards() != sr.cur.Shards() {
		return nil, fmt.Errorf("server: ring update changes shard count %d -> %d; resizing is not live-reconfigurable yet", sr.cur.Shards(), next.Shards())
	}
	if s.ring.index >= next.Shards() {
		return nil, fmt.Errorf("server: shard index %d out of range for pending ring", sr.index)
	}
	// Idempotent re-prepare: the same pending ring again either reports
	// progress (migrating/ready) or restarts a failed acquire.
	if sr.pending != nil && sr.pending.Fingerprint() == next.Fingerprint() && sr.pendingReplicas == nrep {
		if sr.state != ringFailed {
			return s.ringStatusLocked(), nil
		}
	} else {
		if sr.state == ringMigrating {
			return nil, fmt.Errorf("server: reconfiguration to epoch %d already in flight", sr.pending.Epoch())
		}
		if next.Epoch() <= sr.cur.Epoch() {
			return nil, fmt.Errorf("server: ring epoch must advance (current %d, proposed %d)", sr.cur.Epoch(), next.Epoch())
		}
	}
	// Failpoint: reject the install outright — the current epoch is
	// untouched, the driver sees a clean refusal.
	if err := failpoint.Eval(failpoint.ShardRingInstall); err != nil {
		return nil, fmt.Errorf("server: ring install failed: %w", err)
	}
	sr.pending = next
	sr.pendingReplicas = nrep
	sr.state = ringMigrating
	sr.acquired = 0
	sr.lastErr = ""
	sr.gen++
	go s.ringAcquire(sr.gen, next, nrep)
	return s.ringStatusLocked(), nil
}

// ringAcquire is the background acquire: adopt, from every peer, the
// entries this shard will own under the pending ring but does not hold.
// It runs without the ring lock; results are reported through
// ringAcquireDone, which drops them if a newer prepare superseded this
// generation.
func (s *Server) ringAcquire(gen int, next *placement.Ring, replicas int) {
	acquired, err := s.acquireFromPeers(next, replicas)
	s.ringAcquireDone(gen, acquired, err)
}

func (s *Server) acquireFromPeers(next *placement.Ring, replicas int) (int, error) {
	acquired := 0
	for peer := 0; peer < next.Shards(); peer++ {
		if peer == s.ring.index {
			continue
		}
		// Failpoint: fail the acquire at a peer boundary; the shard parks
		// in "failed" with everything adopted so far kept (duplicates are
		// harmless) and a re-prepare restarts from scratch.
		if err := failpoint.Eval(failpoint.ShardMigrate); err != nil {
			return acquired, fmt.Errorf("migration interrupted at peer %d: %w", peer, err)
		}
		n, err := s.acquireFromPeer(peer, next, replicas)
		acquired += n
		if err != nil {
			return acquired, err
		}
	}
	return acquired, nil
}

func (s *Server) acquireFromPeer(peer int, next *placement.Ring, replicas int) (int, error) {
	fetcher := s.shardCfg.Fetcher
	if fetcher == nil {
		return 0, fmt.Errorf("no peer fetcher configured; cannot acquire from shard %d", peer)
	}
	ctx, cancel := context.WithTimeout(context.Background(), migrateFetchTimeout)
	defer cancel()
	peng, err := fetcher.FetchEngine(ctx, peer)
	if err != nil {
		return 0, fmt.Errorf("fetching shard %d: %w", peer, err)
	}
	acquired := 0
	for _, id := range peng.IDs() {
		if !next.OwnedBy(id, replicas, s.ring.index) {
			continue
		}
		eng := s.Engine() // re-load per entry: /v1/restore may swap it mid-acquire
		if eng.Contains(id) {
			continue
		}
		sp, ok := peng.SummaryOf(id)
		if !ok {
			// Resident only in the peer snapshot's cold tier; snapshot
			// restores are all-hot, so this cannot happen — but fail loudly
			// rather than silently under-acquire if that invariant shifts.
			return acquired, fmt.Errorf("shard %d holds %d outside RAM; cannot adopt", peer, id)
		}
		if err := eng.InsertSummary(id, sp); err != nil {
			// A concurrent replicated write may have landed the id between
			// the Contains check and the adopt; that duplicate is success.
			if eng.Contains(id) {
				continue
			}
			return acquired, fmt.Errorf("adopting %d from shard %d: %w", id, peer, err)
		}
		acquired++
	}
	return acquired, nil
}

// ringAcquireDone records the acquire outcome for generation gen.
func (s *Server) ringAcquireDone(gen, acquired int, err error) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	sr := s.ring
	if sr.gen != gen || sr.state != ringMigrating {
		return // superseded by a newer prepare or an abort
	}
	sr.acquired = acquired
	if err != nil {
		sr.state = ringFailed
		sr.lastErr = err.Error()
		return
	}
	sr.state = ringReady
}

func (s *Server) ringCommit(wire RingConfigWire) (*RingStatusResponse, error) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	sr := s.ring
	if sr.pending == nil {
		return nil, fmt.Errorf("server: no pending ring to commit")
	}
	if sr.pending.Epoch() != wire.Epoch {
		return nil, fmt.Errorf("server: commit names epoch %d but pending is %d", wire.Epoch, sr.pending.Epoch())
	}
	if sr.state != ringReady {
		return nil, fmt.Errorf("server: pending ring is %q, not ready to commit", sr.state)
	}
	// Failpoint: refuse the commit before any shed — the shard stays
	// "ready" holding entries under both rings, and the driver retries.
	if err := failpoint.Eval(failpoint.ShardMigrate); err != nil {
		return nil, fmt.Errorf("server: ring commit failed: %w", err)
	}
	// Shed entries this shard does not own under the new ring. Safe only
	// because the driver commits strictly after every shard acquired
	// (cluster-wide barrier): each shed entry is already held by all its
	// new owners. A crash mid-loop is recoverable — the remaining
	// duplicates shed on the re-issued commit.
	eng := s.Engine()
	shed := 0
	for _, id := range eng.IDs() {
		if sr.pending.OwnedBy(id, sr.pendingReplicas, sr.index) {
			continue
		}
		if err := eng.Delete(id); err != nil {
			// A concurrent replicated delete may have removed the id
			// between the listing and the shed; its absence is the goal.
			if !eng.Contains(id) {
				continue
			}
			return nil, fmt.Errorf("server: shedding %d: %w", id, err)
		}
		shed++
	}
	sr.shed = shed
	sr.cur = sr.pending
	sr.replicas = sr.pendingReplicas
	sr.pending = nil
	sr.pendingReplicas = 0
	sr.state = ringSteady
	sr.lastErr = ""
	return s.ringStatusLocked(), nil
}

func (s *Server) ringAbort() (*RingStatusResponse, error) {
	s.ringMu.Lock()
	defer s.ringMu.Unlock()
	sr := s.ring
	sr.pending = nil
	sr.pendingReplicas = 0
	sr.gen++ // orphan any in-flight acquire goroutine
	if sr.state != ringSteady {
		sr.state = ringSteady
		sr.lastErr = ""
	}
	return s.ringStatusLocked(), nil
}
