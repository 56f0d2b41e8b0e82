package server

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/metrics"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/workload"
)

func TestAdmissionSlots(t *testing.T) {
	var rejected metrics.Counter
	a := newAdmission(2, 1, &rejected)
	ctx := context.Background()

	// Two slots acquire without queueing.
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	if err := a.acquire(ctx); err != nil {
		t.Fatal(err)
	}

	// One waiter fits in the queue; it unblocks when a slot frees.
	waited := make(chan error, 1)
	go func() { waited <- a.acquire(ctx) }()
	// Give the waiter time to enter the queue, then overflow it.
	deadline := time.Now().Add(time.Second)
	for a.waiting.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := a.acquire(ctx); !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overflow acquire: %v, want ErrOverloaded", err)
	}
	if rejected.Load() != 1 {
		t.Fatalf("rejected counter = %d, want 1", rejected.Load())
	}

	a.release()
	if err := <-waited; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
}

func TestAdmissionContextCancel(t *testing.T) {
	var rejected metrics.Counter
	a := newAdmission(1, 4, &rejected)
	if err := a.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := a.acquire(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("cancelled acquire: %v, want deadline exceeded", err)
	}
	// The abandoned wait must not leak queue capacity.
	if a.waiting.Load() != 0 {
		t.Fatalf("waiting = %d after cancel, want 0", a.waiting.Load())
	}
}

func TestCoalescerBatchesAndWindow(t *testing.T) {
	var mu sync.Mutex
	var batches [][]int
	done := make(chan struct{}, 64)
	c := newCoalescer(20*time.Millisecond, 4, func(b []int) {
		mu.Lock()
		batches = append(batches, b)
		mu.Unlock()
		for range b {
			done <- struct{}{}
		}
	})

	// A burst larger than maxBatch splits into full batches.
	for i := 0; i < 8; i++ {
		c.submit(i)
	}
	for i := 0; i < 8; i++ {
		<-done
	}
	// A lone straggler is dispatched by the window timer, not stuck waiting
	// for a full batch.
	c.submit(99)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("window timer never fired for a partial batch")
	}
	c.close()

	mu.Lock()
	defer mu.Unlock()
	total := 0
	for _, b := range batches {
		if len(b) > 4 {
			t.Errorf("batch of %d exceeds maxBatch 4", len(b))
		}
		total += len(b)
	}
	if total != 9 {
		t.Errorf("dispatched %d items, want 9", total)
	}
	if len(batches) < 3 {
		t.Errorf("burst of 8 + straggler produced %d batches, want >= 3", len(batches))
	}
}

func TestCoalescerCloseFlushesTail(t *testing.T) {
	var seen atomic.Int64
	slow := newCoalescer(time.Hour, 128, func(b []int) {
		seen.Add(int64(len(b)))
	})
	for i := 0; i < 5; i++ {
		slow.submit(i)
	}
	// close must dispatch the gathered tail rather than drop it, even though
	// the hour-long window never expires.
	closed := make(chan struct{})
	go func() {
		slow.close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("close hung on an unexpired window")
	}
	if seen.Load() != 5 {
		t.Fatalf("dispatched %d items on close, want 5", seen.Load())
	}
}

// newTestEngine builds a small indexed corpus for white-box tests.
func newTestEngine(t *testing.T) (*core.Engine, *workload.Dataset) {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		Name: "server-internal", Scenes: 3, Photos: 24, Subjects: 2,
		SubjectRate: 0.3, Resolution: 64, Seed: 29, SceneBase: 8200,
	})
	if err != nil {
		t.Fatalf("Generate: %v", err)
	}
	eng := core.NewEngine(core.Config{})
	if _, err := eng.Build(ds.Photos); err != nil {
		t.Fatalf("Build: %v", err)
	}
	return eng, ds
}

// TestDispatchPanicFailsBatchNotProcess feeds the coalesced insert
// dispatcher a malformed photo whose processing panics (an image whose Pix
// backing is missing). The panic must come back as the job's error — never
// unwind the dispatch goroutine, which runs outside net/http's recover and
// would crash the daemon.
func TestDispatchPanicFailsBatchNotProcess(t *testing.T) {
	eng, _ := newTestEngine(t)
	s, err := New(Config{Engine: eng, Window: time.Millisecond, BatchMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	hollow := &simimg.Image{W: 64, H: 64} // valid dims, no pixels: At() panics
	ins := []insertJob{{
		photo:     &simimg.Photo{ID: 9_300_001, Img: hollow},
		submitted: time.Now(),
		resp:      make(chan error, 1),
	}}
	s.dispatchInserts(ins)
	select {
	case err := <-ins[0].resp:
		if err == nil {
			t.Error("no error for a panicking insert")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("panicking insert never answered")
	}
}

// TestDispatchInsertsResumesAfterFailure feeds a coalesced insert batch
// with a duplicate in the middle; InsertBatch stops at the failure, and the
// dispatcher must answer the victim with the error while still committing
// the photos queued behind it.
func TestDispatchInsertsResumesAfterFailure(t *testing.T) {
	eng, ds := newTestEngine(t)
	s, err := New(Config{Engine: eng, Window: time.Millisecond, BatchMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	fresh1 := ds.FreshPhoto(9_200_001, 21)
	dup := ds.Photos[0] // already indexed: InsertBatch fails on it
	fresh2 := ds.FreshPhoto(9_200_002, 22)

	jobs := make([]insertJob, 3)
	for i, p := range []*simimg.Photo{fresh1, dup, fresh2} {
		jobs[i] = insertJob{photo: p, submitted: time.Now(), resp: make(chan error, 1)}
	}
	s.dispatchInserts(jobs)

	if err := <-jobs[0].resp; err != nil {
		t.Fatalf("first insert: %v", err)
	}
	if err := <-jobs[1].resp; err == nil {
		t.Fatal("duplicate insert did not report an error")
	}
	if err := <-jobs[2].resp; err != nil {
		t.Fatalf("insert behind the failure: %v", err)
	}
	if !eng.Contains(fresh1.ID) || !eng.Contains(fresh2.ID) {
		t.Fatal("resumed batch lost a photo")
	}
}
