package cache

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func key(i int) Key { return ImageKey(i, 1, nil) }

var errAbsent = errors.New("absent")

// get looks k up without storing anything on a miss: a compute that fails
// is never cached, so GetOrCompute reduces to a recency-bumping lookup.
func get[V any](c *Cache[V], k Key) (V, bool) {
	v, hit, _ := c.GetOrCompute(k, func() (V, error) {
		var zero V
		return zero, errAbsent
	})
	return v, hit
}

// add stores v under k when k is absent.
func add[V any](c *Cache[V], k Key, v V) {
	c.GetOrCompute(k, func() (V, error) { return v, nil })
}

func TestGetAddRoundTrip(t *testing.T) {
	c := New[string](64)
	if _, ok := get(c, key(1)); ok {
		t.Fatal("empty cache reported a hit")
	}
	add(c, key(1), "one")
	v, ok := get(c, key(1))
	if !ok || v != "one" {
		t.Fatalf("Get = %q, %v; want \"one\", true", v, ok)
	}
	if n := c.Stats().Entries; n != 1 {
		t.Fatalf("Len = %d, want 1", n)
	}
}

// TestLRUEviction drives a single shard far past its capacity and checks
// that recency — not insertion order — decides survival.
func TestLRUEviction(t *testing.T) {
	c := New[int](1) // one shard, one entry after the thinning loop
	if len(c.shards) != 1 {
		t.Fatalf("capacity-1 cache built %d shards, want 1", len(c.shards))
	}
	add(c, key(1), 1)
	add(c, key(2), 2) // evicts 1
	if _, ok := get(c, key(1)); ok {
		t.Fatal("evicted entry still present")
	}
	if v, ok := get(c, key(2)); !ok || v != 2 {
		t.Fatal("most recent entry missing after eviction")
	}
	st := c.Stats()
	if st.Evictions != 1 {
		t.Fatalf("Evictions = %d, want 1", st.Evictions)
	}
}

func TestLRURecencyOrder(t *testing.T) {
	// All keys land in distinct map slots of one shard: capacity 3 forces a
	// single shard (3/2 < 2 halves it to 1... depends on GOMAXPROCS), so
	// construct explicitly and verify the shard count first.
	c := New[int](3)
	if len(c.shards) != 1 {
		t.Skipf("capacity 3 spread over %d shards; recency order not observable", len(c.shards))
	}
	add(c, key(1), 1)
	add(c, key(2), 2)
	add(c, key(3), 3)
	get(c, key(1))    // 1 is now hottest; 2 is coldest
	add(c, key(4), 4) // evicts 2
	if _, ok := get(c, key(2)); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	for _, k := range []int{1, 3, 4} {
		if _, ok := get(c, key(k)); !ok {
			t.Fatalf("entry %d wrongly evicted", k)
		}
	}
}

func TestCapacityBound(t *testing.T) {
	const capacity = 64
	c := New[int](capacity)
	for i := 0; i < 10*capacity; i++ {
		add(c, key(i), i)
	}
	if st := c.Stats(); st.Entries > st.Capacity {
		t.Fatalf("Len = %d exceeds capacity %d", st.Entries, st.Capacity)
	}
}

// TestSingleflightComputesOnce releases N goroutines at the same missing
// key and requires exactly one execution of the compute function.
func TestSingleflightComputesOnce(t *testing.T) {
	c := New[int](16)
	const goroutines = 32
	var computes atomic.Int64
	gate := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			v, _, err := c.GetOrCompute(key(7), func() (int, error) {
				computes.Add(1)
				return 42, nil
			})
			if err != nil || v != 42 {
				t.Errorf("GetOrCompute = %d, %v", v, err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	// The first caller leads; stragglers arriving after the store hit the
	// cache instead of the flight, so "exactly one" is the only legal count
	// either way.
	if n := computes.Load(); n != 1 {
		t.Fatalf("compute ran %d times, want 1", n)
	}
	st := c.Stats()
	if st.Hits+st.Misses != goroutines {
		t.Fatalf("hits %d + misses %d != %d lookups", st.Hits, st.Misses, goroutines)
	}
}

// TestErrorsNotCached checks a failed compute is retried, not memoized.
func TestErrorsNotCached(t *testing.T) {
	c := New[int](16)
	boom := errors.New("boom")
	if _, _, err := c.GetOrCompute(key(1), func() (int, error) { return 0, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	v, hit, err := c.GetOrCompute(key(1), func() (int, error) { return 9, nil })
	if err != nil || hit || v != 9 {
		t.Fatalf("retry = %d, hit=%v, err=%v; want 9, false, nil", v, hit, err)
	}
}

// TestLeaderPanicReleasesWaiters ensures a panicking compute does not
// strand singleflight waiters or leak the in-flight slot.
func TestLeaderPanicReleasesWaiters(t *testing.T) {
	c := New[int](16)
	leaderIn := make(chan struct{})
	release := make(chan struct{})
	var waiterErr error
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer func() { recover() }()
		c.GetOrCompute(key(9), func() (int, error) {
			close(leaderIn)
			<-release
			panic("compute exploded")
		})
	}()
	go func() {
		defer wg.Done()
		<-leaderIn
		_, _, waiterErr = c.GetOrCompute(key(9), func() (int, error) { return 1, nil })
	}()
	close(release)
	wg.Wait()
	// The waiter either piggybacked on the panicked leader (error) or
	// arrived after the slot was released and computed cleanly; both are
	// fine. What must not happen is a hang (the test would time out) or a
	// stuck in-flight slot:
	if waiterErr != nil && waiterErr.Error() == "" {
		t.Fatalf("waiter got malformed error: %v", waiterErr)
	}
	if v, _, err := c.GetOrCompute(key(9), func() (int, error) { return 7, nil }); err != nil && v != 7 {
		t.Fatalf("slot not released after panic: %d, %v", v, err)
	}
}

func TestNilCacheIsDisabled(t *testing.T) {
	var c *Cache[int]
	if _, ok := get(c, key(1)); ok {
		t.Fatal("nil cache hit")
	}
	add(c, key(1), 1) // must not panic
	v, hit, err := c.GetOrCompute(key(1), func() (int, error) { return 3, nil })
	if err != nil || hit || v != 3 {
		t.Fatalf("nil GetOrCompute = %d, %v, %v", v, hit, err)
	}
	if c.Stats() != (Stats{}) {
		t.Fatal("nil cache reported non-zero state")
	}
}

// TestFingerprintDistinctness hits the construction with near-identical
// inputs — the collisions that would actually hurt (one flipped pixel bit,
// swapped dimensions, same content at different topK/epoch) — and requires
// distinct keys for all of them.
func TestFingerprintDistinctness(t *testing.T) {
	pix := make([]float64, 64)
	for i := range pix {
		pix[i] = float64(i) / 7
	}
	seen := map[Key]string{}
	record := func(name string, k Key) {
		if prev, dup := seen[k]; dup {
			t.Fatalf("fingerprint collision: %s == %s (%v)", name, prev, k)
		}
		seen[k] = name
	}
	record("base", ImageKey(8, 8, pix))
	record("transposed", ImageKey(4, 16, pix))
	pix2 := append([]float64(nil), pix...)
	pix2[63] = math.Float64frombits(math.Float64bits(pix2[63]) ^ 1) // one mantissa bit
	record("bitflip", ImageKey(8, 8, pix2))
	record("empty", ImageKey(0, 0, nil))

	bits := []uint32{1, 5, 9, 200}
	record("summary", SummaryKey(1024, 4, bits))
	record("summary-geom", SummaryKey(2048, 4, bits))
	record("summary-k", SummaryKey(1024, 5, bits))
	record("summary-odd", SummaryKey(1024, 4, bits[:3]))

	base := SummaryKey(1024, 4, bits)
	record("derive-10-1", base.Derive(10, 1))
	record("derive-10-2", base.Derive(10, 2))
	record("derive-20-1", base.Derive(20, 1))
	// Determinism: the same derivation twice is the same key.
	if base.Derive(10, 1) != base.Derive(10, 1) {
		t.Fatal("Derive is not deterministic")
	}
}

// TestConcurrentMixedUse is a -race workout: readers, writers and
// singleflight computes hammering overlapping keys.
func TestConcurrentMixedUse(t *testing.T) {
	c := New[string](128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 400; i++ {
				k := key(i % 50)
				switch i % 3 {
				case 0:
					add(c, k, fmt.Sprintf("g%d-%d", g, i))
				case 1:
					get(c, k)
				default:
					c.GetOrCompute(k, func() (string, error) { return "computed", nil })
				}
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Entries > st.Capacity {
		t.Fatalf("Len %d exceeded capacity %d under concurrency", st.Entries, st.Capacity)
	}
}
