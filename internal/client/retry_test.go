package client

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/workload"
)

// retryStub answers /v1/delete with a scripted status sequence; each 429
// carries the given Retry-After header value.
func retryStub(t *testing.T, retryAfter string, statuses ...int) (*httptest.Server, *atomic.Int64, *atomic.Int64) {
	t.Helper()
	var hits atomic.Int64
	var lastGap atomic.Int64 // ns between the two most recent attempts
	var lastAt atomic.Int64
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		now := time.Now().UnixNano()
		if prev := lastAt.Swap(now); prev != 0 {
			lastGap.Store(now - prev)
		}
		n := int(hits.Add(1)) - 1
		if n >= len(statuses) {
			n = len(statuses) - 1
		}
		status := statuses[n]
		w.Header().Set("Content-Type", "application/json")
		if status == http.StatusTooManyRequests && retryAfter != "" {
			w.Header().Set("Retry-After", retryAfter)
		}
		if status == http.StatusOK {
			w.WriteHeader(status)
			w.Write([]byte(`{"ok":true}`))
			return
		}
		w.WriteHeader(status)
		w.Write([]byte(`{"error":"scripted"}`))
	}))
	t.Cleanup(hs.Close)
	return hs, &hits, &lastGap
}

// A 429's integer Retry-After stretches the backoff to at least the
// server's ask.
func TestRetryAfterSecondsHonored(t *testing.T) {
	hs, hits, gap := retryStub(t, "1", http.StatusTooManyRequests, http.StatusOK)
	c := New(hs.URL, WithRetries(2, time.Millisecond))
	start := time.Now()
	if err := c.Delete(context.Background(), 1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if got := hits.Load(); got != 2 {
		t.Fatalf("attempts = %d, want 2", got)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("retried after %v, ignoring Retry-After: 1", elapsed)
	}
	if g := time.Duration(gap.Load()); g < 900*time.Millisecond {
		t.Fatalf("attempt gap %v < Retry-After", g)
	}
}

// An HTTP-date Retry-After works the same as delay-seconds.
func TestRetryAfterHTTPDateHonored(t *testing.T) {
	date := time.Now().Add(1200 * time.Millisecond).UTC().Format(http.TimeFormat)
	hs, _, gap := retryStub(t, date, http.StatusTooManyRequests, http.StatusOK)
	c := New(hs.URL, WithRetries(2, time.Millisecond))
	if err := c.Delete(context.Background(), 1); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	// http.TimeFormat has second granularity, so the parsed wait can round
	// down by up to a second from the 1.2s target; anything clearly above
	// the 1ms base backoff proves the date was honored.
	if g := time.Duration(gap.Load()); g < 100*time.Millisecond {
		t.Fatalf("attempt gap %v ignored HTTP-date Retry-After", g)
	}
}

// When the caller's deadline cannot survive the server's Retry-After, the
// client gives up immediately instead of sleeping into a guaranteed
// context error — and reports the server's last real answer.
func TestDeadlineCapsRetryAfter(t *testing.T) {
	hs, hits, _ := retryStub(t, "30", http.StatusTooManyRequests)
	c := New(hs.URL, WithRetries(5, time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Delete(ctx, 1)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Delete succeeded against a 429-only server")
	}
	if elapsed > 2*time.Second {
		t.Fatalf("client slept %v into a 30s Retry-After with a 300ms deadline", elapsed)
	}
	if got := hits.Load(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no point retrying past the deadline)", got)
	}
	if !strings.Contains(err.Error(), "scripted") {
		t.Fatalf("error %v lost the server's last answer", err)
	}
}

// newFaultServer builds a real engine + serving stack for failpoint-driven
// burst tests; the returned ID is a photo the engine actually holds.
func newFaultServer(t *testing.T) (*httptest.Server, uint64) {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		Name: "client-fp", Scenes: 3, Photos: 30, Subjects: 2,
		SubjectRate: 0.2, Resolution: 32, Seed: 5, SceneBase: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.Config{})
	if _, err := eng.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Engine: eng})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.BeginDrain()
	})
	return hs, ds.Photos[0].ID
}

// A burst of injected 429s followed by recovery: the client retries
// through the burst, honoring the server's Retry-After, and succeeds.
func TestRetriesThroughInjected429Burst(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	failpoint.Reset()
	hs, id := newFaultServer(t)
	// The server's injected 429 carries Retry-After: 1 — one of them, then
	// healthy (each extra 429 costs a real 1s+ wait, so keep the burst
	// short; the longer-burst shape is covered by the deadline test below).
	failpoint.Enable(failpoint.ServerInject429, failpoint.Policy{Action: failpoint.Error, Times: 1})
	c := New(hs.URL, WithRetries(5, time.Millisecond))
	start := time.Now()
	if err := c.Delete(context.Background(), id); err != nil {
		t.Fatalf("Delete through 429 burst: %v", err)
	}
	if elapsed := time.Since(start); elapsed < 900*time.Millisecond {
		t.Fatalf("Retry-After:1 wait finished in %v", elapsed)
	}
	if got := failpoint.Hits(failpoint.ServerInject429); got != 1 {
		t.Fatalf("injected %d 429s, want 1", got)
	}
}

// A 503 burst without Retry-After falls back to exponential backoff.
func TestRetriesThroughInjected503Burst(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	failpoint.Reset()
	hs, id := newFaultServer(t)
	failpoint.Enable(failpoint.ServerInject503, failpoint.Policy{Action: failpoint.Error, Times: 2})
	c := New(hs.URL, WithRetries(4, time.Millisecond))
	if err := c.Delete(context.Background(), id); err != nil {
		t.Fatalf("Delete through 503 burst: %v", err)
	}
	if got := failpoint.Hits(failpoint.ServerInject503); got != 2 {
		t.Fatalf("injected %d 503s, want 2", got)
	}
}

// An injected 429/503 burst longer than the caller's deadline budget must
// surface within the deadline, not after the full retry schedule.
func TestInjectedBurstRespectsDeadline(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	failpoint.Reset()
	hs, id := newFaultServer(t)
	failpoint.Enable(failpoint.ServerInject429, failpoint.Policy{Action: failpoint.Error})
	c := New(hs.URL, WithRetries(10, time.Millisecond))
	ctx, cancel := context.WithTimeout(context.Background(), 250*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Delete(ctx, id)
	if err == nil {
		t.Fatal("Delete succeeded through a permanent 429 wall")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("deadline-capped retry ran %v", elapsed)
	}
}

// Transport faults injected at the client's own failpoint retry like real
// connection errors.
func TestTransportFailpointRetries(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	failpoint.Reset()
	hs, hits, _ := retryStub(t, "", http.StatusOK)
	failpoint.Enable(failpoint.ClientTransport, failpoint.Policy{Action: failpoint.Error, Times: 2})
	c := New(hs.URL, WithRetries(3, time.Millisecond))
	if err := c.Delete(context.Background(), 1); err != nil {
		t.Fatalf("Delete through transport faults: %v", err)
	}
	// The two injected faults never reached the server.
	if got := hits.Load(); got != 1 {
		t.Fatalf("server saw %d attempts, want 1", got)
	}
	if got := failpoint.Hits(failpoint.ClientTransport); got != 2 {
		t.Fatalf("transport failpoint fired %d times, want 2", got)
	}
}

// Exhausting retries on transport faults reports the injected error.
func TestTransportFailpointExhaustion(t *testing.T) {
	t.Cleanup(failpoint.Reset)
	failpoint.Reset()
	hs, hits, _ := retryStub(t, "", http.StatusOK)
	failpoint.Enable(failpoint.ClientTransport, failpoint.Policy{Action: failpoint.Error})
	c := New(hs.URL, WithRetries(2, time.Millisecond))
	err := c.Delete(context.Background(), 1)
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("want injected transport error, got %v", err)
	}
	if got := hits.Load(); got != 0 {
		t.Fatalf("server saw %d attempts, want 0", got)
	}
}
