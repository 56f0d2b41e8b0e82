package store

import (
	"sync"
	"testing"
	"time"
)

func TestSimClockAdvance(t *testing.T) {
	c := NewClock()
	if c.Now() != 0 {
		t.Error("fresh clock not at zero")
	}
	c.Advance(5 * time.Millisecond)
	c.Advance(3 * time.Millisecond)
	if c.Now() != 8*time.Millisecond {
		t.Errorf("Now = %v, want 8ms", c.Now())
	}
	c.Advance(-time.Second) // ignored
	if c.Now() != 8*time.Millisecond {
		t.Errorf("negative advance changed clock: %v", c.Now())
	}
	c.AdvanceTo(4 * time.Millisecond) // in the past: no-op
	if c.Now() != 8*time.Millisecond {
		t.Errorf("AdvanceTo past moved clock backwards: %v", c.Now())
	}
	c.AdvanceTo(20 * time.Millisecond)
	if c.Now() != 20*time.Millisecond {
		t.Errorf("AdvanceTo = %v, want 20ms", c.Now())
	}
	c.Reset()
	if c.Now() != 0 {
		t.Error("Reset did not zero the clock")
	}
}

func TestSimClockConcurrent(t *testing.T) {
	c := NewClock()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				c.Advance(time.Microsecond)
			}
		}()
	}
	wg.Wait()
	if c.Now() != 8*time.Millisecond {
		t.Errorf("concurrent advances lost updates: %v", c.Now())
	}
}

func TestDiskModelOrdering(t *testing.T) {
	hdd, ram := HDD7200(), RAM()
	const size = 64 * 1024
	if hdd.RandomRead(size) <= ram.RandomRead(size) {
		t.Errorf("device ordering violated: hdd %v ram %v", hdd.RandomRead(size), ram.RandomRead(size))
	}
	// Sequential reads avoid positioning.
	if hdd.SequentialRead(size) >= hdd.RandomRead(size) {
		t.Error("sequential read not cheaper than random read")
	}
	// Transfer scales with size.
	if hdd.SequentialRead(2*size) <= hdd.SequentialRead(size) {
		t.Error("transfer does not scale with size")
	}
	if hdd.SequentialRead(0) != 0 {
		t.Error("zero-size transfer should be free")
	}
}

func TestNetworkModel(t *testing.T) {
	g := GigabitEthernet()
	w := WiFi()
	const mb = 1 << 20
	if g.Transfer(mb) >= w.Transfer(mb) {
		t.Errorf("gigabit %v not faster than wifi %v", g.Transfer(mb), w.Transfer(mb))
	}
	if w.Transfer(0) != w.RTT {
		t.Error("zero-byte transfer should cost one RTT")
	}
	degenerate := NetworkModel{RTT: time.Millisecond}
	if degenerate.Transfer(mb) != time.Millisecond {
		t.Error("zero-bandwidth link should cost RTT only")
	}
}

func TestMemStoreBasics(t *testing.T) {
	s := NewMemStore()
	lat := s.Put(1, 100)
	if lat <= 0 {
		t.Error("Put latency not positive")
	}
	size, ok, _ := s.Get(1)
	if !ok || size != 100 {
		t.Errorf("Get = (%d, %v)", size, ok)
	}
	if _, ok, _ := s.Get(2); ok {
		t.Error("absent key found")
	}
	s.Put(1, 250) // overwrite adjusts totals
	if s.TotalBytes() != 250 || s.Len() != 1 {
		t.Errorf("TotalBytes=%d Len=%d after overwrite", s.TotalBytes(), s.Len())
	}
}

func TestSQLStoreChargesMoreThanMem(t *testing.T) {
	sql, err := NewSQLStore(HDD7200(), 0)
	if err != nil {
		t.Fatalf("NewSQLStore: %v", err)
	}
	mem := NewMemStore()
	const size = 200 * 1024
	sqlLat := sql.Put(1, size)
	memLat := mem.Put(1, size)
	if sqlLat <= memLat {
		t.Errorf("SQL put %v not slower than mem put %v", sqlLat, memLat)
	}
	_, _, sqlGet := sql.Get(1)
	_, _, memGet := mem.Get(1)
	if sqlGet <= memGet {
		t.Errorf("SQL get %v not slower than mem get %v", sqlGet, memGet)
	}
}

func TestSQLStoreIndexDepthGrows(t *testing.T) {
	sql, _ := NewSQLStore(HDD7200(), 0)
	_, _, small := sql.Get(12345) // miss on near-empty store
	for i := uint64(0); i < 100000; i++ {
		sql.items[i] = 10 // direct fill to avoid 100k charged puts
	}
	_, _, large := sql.Get(999999999) // miss on large store
	if large <= small {
		t.Errorf("index traversal did not grow with table size: %v vs %v", large, small)
	}
}

func TestSQLStoreCacheHitRatio(t *testing.T) {
	cold, _ := NewSQLStore(HDD7200(), 0)
	warm, _ := NewSQLStore(HDD7200(), 0)
	warm.CacheHitRatio = 0.9
	cold.Put(1, 1000)
	warm.Put(1, 1000)
	_, _, coldLat := cold.Get(1)
	_, _, warmLat := warm.Get(1)
	if warmLat >= coldLat {
		t.Errorf("cache did not reduce latency: warm %v vs cold %v", warmLat, coldLat)
	}
}

func TestSQLStoreValidation(t *testing.T) {
	if _, err := NewSQLStore(HDD7200(), -1); err == nil {
		t.Error("negative page size should fail")
	}
}

func TestSQLStoreOverwrite(t *testing.T) {
	sql, _ := NewSQLStore(HDD7200(), 4096)
	sql.Put(5, 100)
	sql.Put(5, 300)
	if sql.TotalBytes() != 300 || sql.Len() != 1 {
		t.Errorf("TotalBytes=%d Len=%d after overwrite", sql.TotalBytes(), sql.Len())
	}
}

func TestKVInterfaceContract(t *testing.T) {
	// Both stores must satisfy the same behavioural contract.
	for name, kv := range map[string]KV{
		"mem": NewMemStore(),
		"sql": func() KV { s, _ := NewSQLStore(HDD7200(), 0); return s }(),
	} {
		t.Run(name, func(t *testing.T) {
			if kv.Len() != 0 || kv.TotalBytes() != 0 {
				t.Fatal("fresh store not empty")
			}
			lat := kv.Put(1, 100)
			if lat < 0 {
				t.Error("negative latency")
			}
			kv.Put(2, 200)
			if kv.Len() != 2 || kv.TotalBytes() != 300 {
				t.Errorf("Len=%d Total=%d", kv.Len(), kv.TotalBytes())
			}
			size, ok, _ := kv.Get(1)
			if !ok || size != 100 {
				t.Errorf("Get(1) = %d, %v", size, ok)
			}
			if _, ok, _ := kv.Get(42); ok {
				t.Error("absent key found")
			}
		})
	}
}
