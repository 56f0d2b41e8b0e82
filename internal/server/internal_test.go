package server

import (
	"context"
	"errors"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/metrics"
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
