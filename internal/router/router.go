// Package router is the stateless front tier of the FAST cluster: it owns
// no index, only a placement ring and a client per shard. Queries fan out
// across the ring's replica sets under a configurable read policy and the
// per-shard topK lists are merged with exactly the engine's ordering, so a
// routed answer is byte-identical to what a single node holding the union
// corpus would return whenever the responding shards cover the key space
// (the property test and the CI smoke jobs enforce this). Writes go to
// every owner the ring assigns: the primary synchronously (its ack is the
// caller's ack), the replicas through per-shard async apply queues whose
// depth is the replication lag /v1/stats reports.
//
// Replica reads. With replica factor n, every id lives on its n ring-order
// owners, so ANY subset of Shards-n+1 shards covers the whole id space
// (placement.Ring.Covers — an n-owner set cannot be disjoint from it).
// The router exploits that pigeonhole fact twice:
//
//   - Failure tolerance: a query is full (partial:false) as long as the
//     shards that answered cover; with n ≥ 2 any single shard can die
//     mid-fan-out and the merged answer is still byte-identical to the
//     oracle, because every entry the dead shard held has a bit-identical
//     copy on a surviving owner and the merge dedups by id.
//   - Read scaling: the round-robin and hedged policies deliberately skip
//     a rotating window of n-1 shards per query (preferring to skip stale
//     ones), cutting per-shard query load to (Shards-n+1)/Shards of the
//     primary policy's while answers stay byte-identical.
//
// Freshness. Mutation acks carry the shard engine's published view epoch;
// the router keeps, per shard, the largest epoch it has seen acknowledged
// plus the count of async applies still in flight (and failed). A shard's
// answer is fresh iff nothing is pending or failed for it and the epoch
// its answer reports has reached the acknowledged floor. A query whose
// fresh responders cover is served from exactly those; one that needs a
// stale shard to cover answers with stale:true; one whose responders do
// not cover at all answers partial:true (or fails with ErrQuorumLost when
// a majority is down).
//
// Reconfiguration. During a live ring update (see internal/server/ring.go
// for the shard side) the router holds both rings: reads fan out to every
// shard and must cover under BOTH rings to count as full, and writes go to
// the union of both rings' owner sets, so no window exists where a key is
// unreadable or a new owner misses a write.
package router

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/metrics"
	"github.com/fastrepro/fast/internal/placement"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/simimg"
)

// Answer is one shard's reply to a fanned-out query: the ranked results
// plus the freshness token (the shard engine's published view epoch
// sampled before the query ran).
type Answer struct {
	Results []core.SearchResult
	Epoch   uint64
}

// Backend is one shard as the router sees it: the subset of the fastd
// client surface fan-out needs. Mutations return the shard's post-ack view
// epoch (the freshness floor later answers are judged against).
// ClientBackend adapts *client.Client; tests substitute in-process fakes.
type Backend interface {
	Query(ctx context.Context, img *simimg.Image, topK int) (Answer, error)
	Insert(ctx context.Context, id uint64, img *simimg.Image) (uint64, error)
	Delete(ctx context.Context, id uint64) (uint64, error)
	Stats(ctx context.Context) (server.Stats, error)
	Healthy(ctx context.Context) error
}

// ReadPolicy selects how a query picks its wave-1 shard targets.
type ReadPolicy string

const (
	// ReadPrimary queries every shard — the pre-replica behavior. Maximum
	// redundancy, no read scaling.
	ReadPrimary ReadPolicy = "primary"
	// ReadRoundRobin skips a rotating window of Replicas-1 shards per
	// query (stale shards skipped first), which still covers by the
	// pigeonhole bound. A failed or stale target triggers a repair wave to
	// the skipped shards, so answers stay full whenever coverage is
	// achievable.
	ReadRoundRobin ReadPolicy = "round-robin"
	// ReadHedged is round-robin plus a hedge: targets that have not
	// answered within HedgeTimeout cause the skipped shards to be queried
	// early (racing the stragglers) instead of waiting for the per-shard
	// timeout to expire.
	ReadHedged ReadPolicy = "hedged"
)

// ParseReadPolicy converts a flag string to a ReadPolicy.
func ParseReadPolicy(s string) (ReadPolicy, error) {
	switch ReadPolicy(strings.ToLower(s)) {
	case "", ReadPrimary:
		return ReadPrimary, nil
	case ReadRoundRobin:
		return ReadRoundRobin, nil
	case ReadHedged:
		return ReadHedged, nil
	}
	return "", fmt.Errorf("router: unknown read policy %q (want primary, round-robin or hedged)", s)
}

// Config parameterizes a Router.
type Config struct {
	// Shards are the backends, indexed exactly as the placement ring's
	// shard numbers. Required, at least one.
	Shards []Backend
	// Ring is the placement ring routing photo IDs to shards. Its shard
	// count must equal len(Shards). Required.
	Ring *placement.Ring
	// Replicas is the replica factor the cluster runs at: every id lives
	// on its Replicas ring-order owners. The shards must have been
	// subset with the same factor. 0 means 1 (no replication); clamped to
	// the shard count.
	Replicas int
	// Policy is the read policy; "" means ReadPrimary.
	Policy ReadPolicy
	// ShardTimeout bounds each per-shard call; 0 means 2s.
	ShardTimeout time.Duration
	// HedgeTimeout is how long the hedged policy waits for wave-1 targets
	// before launching the skipped shards; 0 means ShardTimeout/4.
	HedgeTimeout time.Duration
	// TopKLimit caps per-query result budgets; 0 means 1000 (the serving
	// layer's own default).
	TopKLimit int
	// ApplyQueue bounds each shard's async replica-apply queue; an insert
	// or delete that finds a replica's queue full marks that replica dirty
	// (stale for reads) instead of blocking the caller. 0 means 4096.
	ApplyQueue int
	// ApplyRetries is how many times a failed async apply is retried
	// before the replica is marked dirty; 0 means 2.
	ApplyRetries int
}

// ErrQuorumLost is returned when a majority of shards failed to answer a
// query; wrapped errors carry the per-shard failures.
var ErrQuorumLost = errors.New("router: a majority of shards is unreachable")

// ReadMeta annotates a routed answer. Partial: the responding shards do
// not cover the key space, results may be missing entries. Stale: the
// answer is complete but required a shard with unacknowledged replica
// writes, so very recent mutations may be unreflected. Hedged/Repaired:
// the skipped shards were pulled in early (hedge) or after wave 1 failed
// to cover with fresh responders (repair).
type ReadMeta struct {
	Partial  bool
	Stale    bool
	Hedged   bool
	Repaired bool
}

// shardHealth is the router's per-shard freshness ledger.
type shardHealth struct {
	pending  atomic.Int64  // async applies enqueued, not yet finished
	applied  atomic.Int64  // async applies completed successfully
	failed   atomic.Int64  // applies failed or dropped since the last ring commit (dirty while > 0)
	minEpoch atomic.Uint64 // largest acknowledged view epoch (freshness floor)
}

// applyOp is one queued async replica mutation.
type applyOp struct {
	del bool
	id  uint64
	img *simimg.Image
}

// Router fans queries out across replica sets and replicates mutations.
type Router struct {
	cfg Config

	// Placement state; next is non-nil during a live reconfiguration.
	ringMu       sync.RWMutex
	ring         *placement.Ring
	replicas     int
	next         *placement.Ring
	nextReplicas int

	rr      atomic.Uint64 // round-robin rotation counter
	health  []shardHealth
	applyQ  []chan applyOp
	applyWG sync.WaitGroup
	stop    chan struct{}
	closed  sync.Once

	met struct {
		queries        metrics.Counter
		queryErrors    metrics.Counter
		partialQueries metrics.Counter
		staleQueries   metrics.Counter
		hedgedQueries  metrics.Counter
		repairWaves    metrics.Counter
		quorumLost     metrics.Counter
		inserts        metrics.Counter
		insertErrors   metrics.Counter
		deletes        metrics.Counter
		deleteErrors   metrics.Counter
		shardErrors    metrics.Counter
		asyncApplied   metrics.Counter
		asyncErrors    metrics.Counter
		asyncDropped   metrics.Counter
		ringUpdates    metrics.Counter
	}
	start time.Time
}

// New validates cfg and builds a Router. Callers own the returned router's
// apply workers and must Close it when done.
func New(cfg Config) (*Router, error) {
	if len(cfg.Shards) == 0 {
		return nil, errors.New("router: config needs at least one shard")
	}
	if cfg.Ring == nil {
		return nil, errors.New("router: config needs a placement ring")
	}
	if cfg.Ring.Shards() != len(cfg.Shards) {
		return nil, fmt.Errorf("router: ring has %d shards, config has %d backends",
			cfg.Ring.Shards(), len(cfg.Shards))
	}
	if cfg.ShardTimeout <= 0 {
		cfg.ShardTimeout = 2 * time.Second
	}
	if cfg.HedgeTimeout <= 0 {
		cfg.HedgeTimeout = cfg.ShardTimeout / 4
	}
	if cfg.TopKLimit <= 0 {
		cfg.TopKLimit = 1000
	}
	if cfg.ApplyQueue <= 0 {
		cfg.ApplyQueue = 4096
	}
	if cfg.ApplyRetries <= 0 {
		cfg.ApplyRetries = 2
	}
	if cfg.Replicas <= 0 {
		cfg.Replicas = 1
	}
	if cfg.Replicas > len(cfg.Shards) {
		cfg.Replicas = len(cfg.Shards)
	}
	if _, err := ParseReadPolicy(string(cfg.Policy)); err != nil {
		return nil, err
	}
	if cfg.Policy == "" {
		cfg.Policy = ReadPrimary
	}
	rt := &Router{
		cfg:      cfg,
		ring:     cfg.Ring,
		replicas: cfg.Replicas,
		health:   make([]shardHealth, len(cfg.Shards)),
		applyQ:   make([]chan applyOp, len(cfg.Shards)),
		stop:     make(chan struct{}),
		start:    time.Now(),
	}
	for i := range rt.applyQ {
		rt.applyQ[i] = make(chan applyOp, cfg.ApplyQueue)
		rt.applyWG.Add(1)
		go rt.applyWorker(i, rt.applyQ[i])
	}
	return rt, nil
}

// Close stops the async apply workers. Queued-but-unapplied replica writes
// are abandoned (the affected replicas stay marked dirty); call
// QuiesceReplicas first when the queues must drain.
func (rt *Router) Close() {
	rt.closed.Do(func() {
		close(rt.stop)
		rt.applyWG.Wait()
	})
}

// Ring exposes the current placement ring (the HTTP layer reports its
// epoch and fingerprint in /v1/stats so operators can verify ring
// agreement).
func (rt *Router) Ring() *placement.Ring {
	rt.ringMu.RLock()
	defer rt.ringMu.RUnlock()
	return rt.ring
}

// ringState snapshots the placement state one operation runs under.
func (rt *Router) ringState() (cur *placement.Ring, n int, next *placement.Ring, nn int) {
	rt.ringMu.RLock()
	defer rt.ringMu.RUnlock()
	return rt.ring, rt.replicas, rt.next, rt.nextReplicas
}

// MergeTopK merges per-shard topK lists into the global topK with exactly
// the engine's result ordering: score descending, ID ascending on ties.
// Replicas hold bit-identical copies of shared entries, so the merge
// dedups by ID (keeping the first, i.e. highest-ranked, occurrence):
// overlap degrades to correct answers rather than duplicates. The global
// topK is always a subset of the union of per-shard topKs: a result
// ranking in the global top k must rank in the top k of its own shard.
func MergeTopK(lists [][]core.SearchResult, topK int) []core.SearchResult {
	n := 0
	for _, l := range lists {
		n += len(l)
	}
	merged := make([]core.SearchResult, 0, n)
	for _, l := range lists {
		merged = append(merged, l...)
	}
	sort.Slice(merged, func(i, j int) bool {
		if merged[i].Score != merged[j].Score {
			return merged[i].Score > merged[j].Score
		}
		return merged[i].ID < merged[j].ID
	})
	out := merged[:0]
	seen := make(map[uint64]struct{}, len(merged))
	for _, r := range merged {
		if _, dup := seen[r.ID]; dup {
			continue
		}
		seen[r.ID] = struct{}{}
		out = append(out, r)
		if len(out) == topK {
			break
		}
	}
	return out
}

// shardAnswer is one shard's slot in a query's fan-out state. Each slot is
// written by at most one goroutine per wave and read only after that
// wave's WaitGroup settles.
type shardAnswer struct {
	queried bool
	ok      bool
	results []core.SearchResult
	epoch   uint64
	err     error
}

// isFresh reports whether shard s's answer carrying the given epoch
// reflects every mutation the router has had acknowledged: no async
// applies in flight or failed for it, and the answer's view has reached
// the acknowledged epoch floor.
func (rt *Router) isFresh(s int, epoch uint64) bool {
	h := &rt.health[s]
	return h.pending.Load() == 0 && h.failed.Load() == 0 && epoch >= h.minEpoch.Load()
}

// noteAck raises shard s's freshness floor to the acknowledged epoch.
func (rt *Router) noteAck(s int, epoch uint64) {
	h := &rt.health[s]
	for {
		cur := h.minEpoch.Load()
		if epoch <= cur || h.minEpoch.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// pickTargets chooses the wave-1 shards for a scaled read: all shards
// minus a window of n-1, preferring to skip stale shards (their answers
// could not count toward fresh coverage anyway) and rotating the skip
// window across queries for the fresh ones. The skipped shards are the
// reserves the hedge and the repair wave draw from.
func (rt *Router) pickTargets(n int) (targets, reserves []int) {
	S := len(rt.cfg.Shards)
	start := int(rt.rr.Add(1) % uint64(S))
	stale := make([]int, 0, S)
	fresh := make([]int, 0, S)
	for i := 0; i < S; i++ {
		s := (start + i) % S
		h := &rt.health[s]
		if h.pending.Load() > 0 || h.failed.Load() > 0 {
			stale = append(stale, s)
		} else {
			fresh = append(fresh, s)
		}
	}
	order := append(stale, fresh...)
	drop := n - 1
	return order[drop:], order[:drop]
}

// covers reports whether the shard set selected by have covers the whole
// key space under the query's placement state — both rings during a
// reconfiguration window, since entries are only guaranteed present at
// their old owners before shards commit and at their new owners after.
func covers(cur *placement.Ring, n int, next *placement.Ring, nn int, have func(int) bool) bool {
	if !cur.Covers(n, have) {
		return false
	}
	return next == nil || next.Covers(nn, have)
}

// queryWave fans img to the not-yet-queried shards in targets, writing
// into answers. For the hedged policy wave 1 also receives reserves: if
// the targets have not all answered within HedgeTimeout the reserves are
// launched to race them.
func (rt *Router) queryWave(ctx context.Context, img *simimg.Image, topK int, targets, reserves []int, answers []shardAnswer) (hedged bool) {
	launch := func(wg *sync.WaitGroup, s int) {
		a := &answers[s]
		if a.queried {
			return
		}
		a.queried = true
		wg.Add(1)
		go func() {
			defer wg.Done()
			// Failpoint: Error deterministically fails this shard's leg
			// (driving the partial/stale/repair paths), Delay simulates a
			// slow shard racing the per-shard and hedge timeouts.
			if err := failpoint.Eval(failpoint.RouterFanout); err != nil {
				a.err = err
				return
			}
			sctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
			defer cancel()
			ans, err := rt.cfg.Shards[s].Query(sctx, img, topK)
			if err != nil {
				a.err = err
				return
			}
			a.ok, a.results, a.epoch = true, ans.Results, ans.Epoch
		}()
	}
	var wg1, wg2 sync.WaitGroup
	for _, s := range targets {
		launch(&wg1, s)
	}
	if len(reserves) > 0 {
		wg1done := make(chan struct{})
		go func() { wg1.Wait(); close(wg1done) }()
		timer := time.NewTimer(rt.cfg.HedgeTimeout)
		select {
		case <-wg1done:
		case <-timer.C:
			// Failpoint: Error suppresses the hedge, so the slow leg must
			// be repaired by the post-wave failure fallback instead.
			if failpoint.Eval(failpoint.RouterHedge) == nil {
				hedged = true
				for _, s := range reserves {
					launch(&wg2, s)
				}
			}
		}
		timer.Stop()
	}
	wg1.Wait()
	wg2.Wait()
	return hedged
}

// Query fans the probe across the replica sets under the configured read
// policy and merges. See ReadMeta for the partial/stale semantics; when
// the responding shards miss coverage AND form at most half the cluster,
// the error wraps ErrQuorumLost.
func (rt *Router) Query(ctx context.Context, img *simimg.Image, topK int) ([]core.SearchResult, ReadMeta, error) {
	if topK <= 0 {
		topK = 50
	}
	if topK > rt.cfg.TopKLimit {
		topK = rt.cfg.TopKLimit
	}
	cur, n, next, nn := rt.ringState()
	S := len(rt.cfg.Shards)
	answers := make([]shardAnswer, S)
	all := make([]int, S)
	for i := range all {
		all[i] = i
	}

	// Wave 1: the policy's targets. Scaled reads are only attempted in
	// steady state — during a reconfiguration window every query double-
	// reads all shards, because coverage must hold under both rings.
	targets, reserves := all, []int(nil)
	var meta ReadMeta
	if next == nil && n > 1 && rt.cfg.Policy != ReadPrimary {
		// Failpoint: Error abandons the scaled pick, falling back to the
		// full fan-out — never a wrong answer, only lost read scaling.
		if failpoint.Eval(failpoint.RouterReplicaPick) == nil {
			targets, reserves = rt.pickTargets(n)
		}
	}
	if rt.cfg.Policy != ReadHedged {
		rt.queryWave(ctx, img, topK, targets, nil, answers)
	} else {
		meta.Hedged = rt.queryWave(ctx, img, topK, targets, reserves, answers)
	}

	freshOK := func(s int) bool { return answers[s].ok && rt.isFresh(s, answers[s].epoch) }
	anyOK := func(s int) bool { return answers[s].ok }

	// Repair wave: if the fresh responders do not cover, pull in every
	// shard not yet queried before classifying the answer. This is what
	// keeps round-robin full when its rotating window hid the only live
	// owner of some arc, and what lets any policy route around a shard
	// that died mid-fan-out.
	if !covers(cur, n, next, nn, freshOK) {
		unqueried := make([]int, 0, S)
		for s := range answers {
			if !answers[s].queried {
				unqueried = append(unqueried, s)
			}
		}
		if len(unqueried) > 0 {
			meta.Repaired = true
			rt.met.repairWaves.Inc()
			rt.queryWave(ctx, img, topK, unqueried, nil, answers)
		}
	}

	var shardErrs []error
	okCount := 0
	for s := range answers {
		if answers[s].ok {
			okCount++
		} else if answers[s].queried {
			rt.met.shardErrors.Inc()
			shardErrs = append(shardErrs, fmt.Errorf("shard %d: %w", s, answers[s].err))
		}
	}

	// Classify: fresh-covered answers merge only fresh shards (a stale
	// list could still contain an entry whose delete is in flight);
	// covered-but-stale answers merge everything that responded and are
	// flagged; uncovered answers are partial, or a quorum error when at
	// most half the cluster responded.
	var pick func(int) bool
	switch {
	case covers(cur, n, next, nn, freshOK):
		pick = freshOK
	case covers(cur, n, next, nn, anyOK):
		pick = anyOK
		meta.Stale = true
	default:
		if okCount*2 <= S {
			rt.met.quorumLost.Inc()
			rt.met.queryErrors.Inc()
			return nil, meta, fmt.Errorf("%w: %d of %d shards answered: %v",
				ErrQuorumLost, okCount, S, errors.Join(shardErrs...))
		}
		pick = anyOK
		meta.Partial = true
	}
	if err := failpoint.Eval(failpoint.RouterMerge); err != nil {
		rt.met.queryErrors.Inc()
		return nil, meta, fmt.Errorf("router: merging shard answers: %w", err)
	}
	// Ownership fence: each shard's list is filtered to the ids the
	// placement actually assigns it (under either ring during a
	// transition). Placement is authoritative for reads, so a stray copy —
	// an async replica apply that landed after its target shard shed the
	// region, or a duplicate left behind by an aborted migration — can
	// never surface in an answer. In steady state every entry a shard
	// serves is one it owns and the fence is a no-op.
	lists := make([][]core.SearchResult, 0, okCount)
	for s := range answers {
		if pick(s) {
			lists = append(lists, ownedResults(answers[s].results, s, cur, n, next, nn))
		}
	}
	rt.met.queries.Inc()
	if meta.Partial {
		rt.met.partialQueries.Inc()
	}
	if meta.Stale {
		rt.met.staleQueries.Inc()
	}
	if meta.Hedged {
		rt.met.hedgedQueries.Inc()
	}
	return MergeTopK(lists, topK), meta, nil
}

// ownedResults filters one shard's result list down to the ids the
// placement assigns that shard — under the current ring, or under either
// ring while a reconfiguration is in flight. Lists are usually entirely
// owned (the common case returns the input slice untouched).
func ownedResults(res []core.SearchResult, s int, cur *placement.Ring, n int, next *placement.Ring, nn int) []core.SearchResult {
	owned := func(id uint64) bool {
		return cur.OwnedBy(id, n, s) || (next != nil && next.OwnedBy(id, nn, s))
	}
	for i := range res {
		if !owned(res[i].ID) {
			out := make([]core.SearchResult, i, len(res))
			copy(out, res[:i])
			for _, r := range res[i+1:] {
				if owned(r.ID) {
					out = append(out, r)
				}
			}
			return out
		}
	}
	return res
}

// writeOwners returns the shards a mutation of id must reach, primary
// (the current ring's first owner) first. During a reconfiguration window
// it is the union of both rings' owner sets, so entries keep landing where
// the old ring can read them AND where the new ring will.
func (rt *Router) writeOwners(id uint64) []int {
	cur, n, next, nn := rt.ringState()
	owners := cur.Owners(id, n)
	if next != nil {
		for _, s := range next.Owners(id, nn) {
			dup := false
			for _, o := range owners {
				if o == s {
					dup = true
					break
				}
			}
			if !dup {
				owners = append(owners, s)
			}
		}
	}
	return owners
}

// Insert routes the photo to its owning replica set: the primary
// synchronously (its failure is the caller's failure), the other owners
// through the async apply queues.
func (rt *Router) Insert(ctx context.Context, id uint64, img *simimg.Image) error {
	owners := rt.writeOwners(id)
	primary := owners[0]
	sctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
	defer cancel()
	epoch, err := rt.cfg.Shards[primary].Insert(sctx, id, img)
	if err != nil {
		rt.met.insertErrors.Inc()
		return fmt.Errorf("router: shard %d (owner of %d): %w", primary, id, err)
	}
	rt.noteAck(primary, epoch)
	rt.met.inserts.Inc()
	for _, s := range owners[1:] {
		rt.enqueueApply(s, applyOp{id: id, img: img})
	}
	return nil
}

// Delete routes the deletion to the photo's owning replica set, one owner
// synchronously and the owners after it async, like Insert. A reply
// wrapping core.ErrNotIndexed moves the synchronous leg to the next owner
// in writeOwners order: between the shards' ring commit and the router's,
// the current ring's primary may already have shed the photo while the
// pending ring's owners still hold it. The delete fails only if every
// owner says "not indexed"; any other error fails it at once. The signal
// is typed (client.decodeError restores it from the wire code), never
// matched on message text.
func (rt *Router) Delete(ctx context.Context, id uint64) error {
	owners := rt.writeOwners(id)
	sctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
	defer cancel()
	var err error
	for i, s := range owners {
		var epoch uint64
		if epoch, err = rt.cfg.Shards[s].Delete(sctx, id); err == nil {
			rt.noteAck(s, epoch)
			rt.met.deletes.Inc()
			for _, o := range owners[i+1:] {
				rt.enqueueApply(o, applyOp{del: true, id: id})
			}
			return nil
		}
		err = fmt.Errorf("router: shard %d (owner of %d): %w", s, id, err)
		if !errors.Is(err, core.ErrNotIndexed) {
			break
		}
	}
	rt.met.deleteErrors.Inc()
	return err
}

// enqueueApply hands an async replica mutation to shard s's apply worker.
// A full queue marks the replica dirty and drops the op instead of
// blocking the caller: reads stop trusting the replica immediately, and
// repair is a chunk-diff catch-up (or the next ring commit), not a stalled
// ingest path.
func (rt *Router) enqueueApply(s int, op applyOp) {
	h := &rt.health[s]
	h.pending.Add(1)
	select {
	case rt.applyQ[s] <- op:
	default:
		h.pending.Add(-1)
		h.failed.Add(1)
		rt.met.asyncDropped.Inc()
	}
}

// applyWorker drains shard s's apply queue in FIFO order — a replica sees
// an id's insert before its delete exactly because one goroutine owns the
// shard's queue.
func (rt *Router) applyWorker(s int, q chan applyOp) {
	defer rt.applyWG.Done()
	for {
		select {
		case op := <-q:
			rt.applyOne(s, op)
		case <-rt.stop:
			return
		}
	}
}

// applyOne applies a replica mutation with bounded retries. Replies
// wrapping core.ErrAlreadyIndexed (for inserts) and core.ErrNotIndexed (for
// deletes) count as convergence, not failure: a ring migration or an
// operator catch-up may have landed the entry's state before the queue
// drained.
func (rt *Router) applyOne(s int, op applyOp) {
	h := &rt.health[s]
	defer h.pending.Add(-1)
	var epoch uint64
	var err error
	for attempt := 0; attempt <= rt.cfg.ApplyRetries; attempt++ {
		sctx, cancel := context.WithTimeout(context.Background(), rt.cfg.ShardTimeout)
		if op.del {
			epoch, err = rt.cfg.Shards[s].Delete(sctx, op.id)
		} else {
			epoch, err = rt.cfg.Shards[s].Insert(sctx, op.id, op.img)
		}
		cancel()
		if err == nil {
			break
		}
		if (!op.del && errors.Is(err, core.ErrAlreadyIndexed)) ||
			(op.del && errors.Is(err, core.ErrNotIndexed)) {
			err = nil
			epoch = 0 // converged, but no fresh epoch to raise the floor with
			break
		}
	}
	if err != nil {
		h.failed.Add(1)
		rt.met.asyncErrors.Inc()
		return
	}
	h.applied.Add(1)
	rt.met.asyncApplied.Inc()
	if epoch > 0 {
		rt.noteAck(s, epoch)
	}
}

// QuiesceReplicas blocks until every async apply queue is empty (or ctx
// expires) — the barrier tests and operators use before demanding
// byte-identical reads from every replica.
func (rt *Router) QuiesceReplicas(ctx context.Context) error {
	for {
		pending := int64(0)
		for i := range rt.health {
			pending += rt.health[i].pending.Load()
		}
		if pending == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("router: %d replica applies still pending: %w", pending, ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// ShardStats is one shard's row in the router's stats document.
type ShardStats struct {
	Shard   int    `json:"shard"`
	Healthy bool   `json:"healthy"`
	Error   string `json:"error,omitempty"`
	// Photos/Queries are the shard's own counters (zero when unreachable).
	Photos  int   `json:"photos"`
	Queries int64 `json:"queries"`
	// Replica freshness: async applies in flight / completed / failed for
	// this shard, the largest acknowledged view epoch, and whether the
	// router currently considers the replica synced (nothing pending or
	// failed). ApplyPending is the per-replica freshness lag.
	ApplyPending int64  `json:"apply_pending"`
	ApplyDone    int64  `json:"apply_done"`
	ApplyErrors  int64  `json:"apply_errors"`
	AckedEpoch   uint64 `json:"acked_epoch"`
	Synced       bool   `json:"synced"`
}

// Stats is the router's /v1/stats document: its own fan-out counters, the
// ring identity both tiers must agree on, the replica/policy state, and a
// per-shard health/freshness row (fetched live, under the per-shard
// timeout).
type Stats struct {
	Shards          int    `json:"shards"`
	ShardsHealthy   int    `json:"shards_healthy"`
	Replicas        int    `json:"replicas"`
	ReadPolicy      string `json:"read_policy"`
	RingEpoch       uint64 `json:"ring_epoch"`
	RingFingerprint uint64 `json:"ring_fingerprint"`
	// RingTransition/RingNextEpoch report a live reconfiguration window
	// (double-read/double-write active).
	RingTransition bool         `json:"ring_transition"`
	RingNextEpoch  uint64       `json:"ring_next_epoch,omitempty"`
	RingUpdates    int64        `json:"ring_updates"`
	Queries        int64        `json:"queries"`
	QueryErrors    int64        `json:"query_errors"`
	PartialQueries int64        `json:"partial_queries"`
	StaleQueries   int64        `json:"stale_queries"`
	HedgedQueries  int64        `json:"hedged_queries"`
	RepairWaves    int64        `json:"repair_waves"`
	QuorumLost     int64        `json:"quorum_lost"`
	Inserts        int64        `json:"inserts"`
	InsertErrors   int64        `json:"insert_errors"`
	Deletes        int64        `json:"deletes"`
	DeleteErrors   int64        `json:"delete_errors"`
	ShardErrors    int64        `json:"shard_errors"`
	AsyncApplied   int64        `json:"async_applied"`
	AsyncPending   int64        `json:"async_pending"`
	AsyncErrors    int64        `json:"async_errors"`
	AsyncDropped   int64        `json:"async_dropped"`
	PhotosTotal    int          `json:"photos_total"`
	UptimeNs       int64        `json:"uptime_ns"`
	PerShard       []ShardStats `json:"per_shard"`
}

// Stats polls every shard (concurrently, under the shard timeout) and
// assembles the aggregate document.
func (rt *Router) Stats(ctx context.Context) Stats {
	cur, n, next, _ := rt.ringState()
	st := Stats{
		Shards:          len(rt.cfg.Shards),
		Replicas:        n,
		ReadPolicy:      string(rt.cfg.Policy),
		RingEpoch:       cur.Epoch(),
		RingFingerprint: cur.Fingerprint(),
		RingTransition:  next != nil,
		RingUpdates:     rt.met.ringUpdates.Load(),
		Queries:         rt.met.queries.Load(),
		QueryErrors:     rt.met.queryErrors.Load(),
		PartialQueries:  rt.met.partialQueries.Load(),
		StaleQueries:    rt.met.staleQueries.Load(),
		HedgedQueries:   rt.met.hedgedQueries.Load(),
		RepairWaves:     rt.met.repairWaves.Load(),
		QuorumLost:      rt.met.quorumLost.Load(),
		Inserts:         rt.met.inserts.Load(),
		InsertErrors:    rt.met.insertErrors.Load(),
		Deletes:         rt.met.deletes.Load(),
		DeleteErrors:    rt.met.deleteErrors.Load(),
		ShardErrors:     rt.met.shardErrors.Load(),
		AsyncApplied:    rt.met.asyncApplied.Load(),
		AsyncErrors:     rt.met.asyncErrors.Load(),
		AsyncDropped:    rt.met.asyncDropped.Load(),
		UptimeNs:        time.Since(rt.start).Nanoseconds(),
		PerShard:        make([]ShardStats, len(rt.cfg.Shards)),
	}
	if next != nil {
		st.RingNextEpoch = next.Epoch()
	}
	var wg sync.WaitGroup
	for i, shard := range rt.cfg.Shards {
		wg.Add(1)
		go func(i int, shard Backend) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
			defer cancel()
			row := ShardStats{Shard: i}
			if ss, err := shard.Stats(sctx); err != nil {
				row.Error = err.Error()
			} else {
				row.Healthy = true
				row.Photos = ss.Photos
				row.Queries = ss.Queries
			}
			h := &rt.health[i]
			row.ApplyPending = h.pending.Load()
			row.ApplyDone = h.applied.Load()
			row.ApplyErrors = h.failed.Load()
			row.AckedEpoch = h.minEpoch.Load()
			row.Synced = row.ApplyPending == 0 && row.ApplyErrors == 0
			st.PerShard[i] = row
		}(i, shard)
	}
	wg.Wait()
	for _, row := range st.PerShard {
		if row.Healthy {
			st.ShardsHealthy++
			st.PhotosTotal += row.Photos
		}
		st.AsyncPending += row.ApplyPending
	}
	return st
}

// Healthy reports whether a majority of shards answers its health check.
func (rt *Router) Healthy(ctx context.Context) error {
	healthy := 0
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, shard := range rt.cfg.Shards {
		wg.Add(1)
		go func(shard Backend) {
			defer wg.Done()
			sctx, cancel := context.WithTimeout(ctx, rt.cfg.ShardTimeout)
			defer cancel()
			if shard.Healthy(sctx) == nil {
				mu.Lock()
				healthy++
				mu.Unlock()
			}
		}(shard)
	}
	wg.Wait()
	if healthy*2 <= len(rt.cfg.Shards) {
		return fmt.Errorf("%w: %d of %d shards healthy", ErrQuorumLost, healthy, len(rt.cfg.Shards))
	}
	return nil
}
