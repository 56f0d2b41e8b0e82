package client

import (
	"context"
	"io"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/fastrepro/fast/internal/chunk"
	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/store"
	"github.com/fastrepro/fast/internal/workload"
)

// testCDC keeps chunks small so kilobyte test snapshots span many of them.
var testCDC = chunk.Config{MinSize: 256, AvgSize: 1024, MaxSize: 8192, Normalization: 2}

// newSnapshotServer builds an engine-backed server with a chunked
// generation store, the shape of a cluster primary.
func newSnapshotServer(t *testing.T) (*httptest.Server, *core.Engine, *workload.Dataset) {
	t.Helper()
	ds, err := workload.Generate(workload.Spec{
		Name: "client-catchup", Scenes: 4, Photos: 60, Subjects: 2,
		SubjectRate: 0.2, Resolution: 32, Seed: 9, SceneBase: 300,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.Config{})
	if _, err := eng.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	gens := &store.Generations{
		Path:    filepath.Join(t.TempDir(), "snap"),
		Chunked: true,
		CDC:     testCDC,
	}
	srv, err := server.New(server.Config{Engine: eng, Snapshots: gens})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		srv.BeginDrain()
	})
	return hs, eng, ds
}

// recoverEngine loads the newest generation of a replica store as an engine.
func recoverEngine(t *testing.T, g *store.Generations) *core.Engine {
	t.Helper()
	var eng *core.Engine
	if _, err := g.Recover(func(_ string, r io.Reader) error {
		var err error
		eng, err = core.ReadEngine(r)
		return err
	}); err != nil {
		t.Fatalf("Recover: %v", err)
	}
	return eng
}

// TestCatchUpColdThenIncremental runs the full replica catch-up loop over
// HTTP: a cold replica pulls the complete chunk set, and after primary
// churn the second pull ships only the diff — with the recovered replica
// engine holding exactly the primary's photo set, and answering every
// probe byte-identically to the primary, both times.
func TestCatchUpColdThenIncremental(t *testing.T) {
	hs, eng, ds := newSnapshotServer(t)
	c := New(hs.URL, WithRetries(1, time.Millisecond))
	ctx := context.Background()
	qs, err := ds.Queries(4, 77)
	if err != nil {
		t.Fatal(err)
	}
	sameAsPrimary := func(label string, replica *core.Engine) {
		t.Helper()
		if got, want := replica.Len(), eng.Len(); got != want {
			t.Fatalf("%s: replica recovered %d photos, primary has %d", label, got, want)
		}
		for qi, q := range qs {
			want, err := eng.Query(q.Probe, 25)
			if err != nil {
				t.Fatal(err)
			}
			got, err := replica.Query(q.Probe, 25)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%s query %d: replica %d results, primary %d", label, qi, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s query %d rank %d drifted: %+v vs %+v", label, qi, i, got[i], want[i])
				}
			}
		}
	}

	if _, err := c.SnapshotSave(ctx); err != nil {
		t.Fatalf("SnapshotSave: %v", err)
	}
	ids, chunked, err := c.ChunkSet(ctx)
	if err != nil || !chunked || len(ids) == 0 {
		t.Fatalf("ChunkSet: ids=%d chunked=%v err=%v", len(ids), chunked, err)
	}

	replica := &store.Generations{Path: filepath.Join(t.TempDir(), "snap"), Chunked: true, CDC: testCDC}
	cold, err := c.CatchUp(ctx, replica)
	if err != nil {
		t.Fatalf("cold CatchUp: %v", err)
	}
	if cold.ChunksFetched != cold.Chunks || cold.ChunksReused != 0 || cold.Chunks == 0 {
		t.Fatalf("cold catch-up should fetch the full set: %+v", cold)
	}
	sameAsPrimary("cold", recoverEngine(t, replica))

	// Churn ~5% on the primary, persist, catch up again.
	fresh := 3
	for i := 0; i < fresh; i++ {
		p := ds.FreshPhoto(uint64(900_000+i), int64(40+i))
		if err := eng.Insert(p); err != nil {
			t.Fatalf("Insert: %v", err)
		}
	}
	if _, err := c.SnapshotSave(ctx); err != nil {
		t.Fatalf("SnapshotSave after churn: %v", err)
	}
	inc, err := c.CatchUp(ctx, replica)
	if err != nil {
		t.Fatalf("incremental CatchUp: %v", err)
	}
	if inc.ChunksReused == 0 {
		t.Fatalf("incremental catch-up reused nothing: %+v", inc)
	}
	if transferred := inc.BytesFetched + inc.ManifestBytes; transferred >= inc.PayloadBytes {
		t.Fatalf("incremental transfer %d not smaller than full payload %d", transferred, inc.PayloadBytes)
	}
	sameAsPrimary("incremental", recoverEngine(t, replica))
}

// TestCatchUpRequiresChunkedStore: a monolithic primary store answers
// /v1/snapshot/fetch with a clean 409, not a broken stream.
func TestCatchUpRequiresChunkedStore(t *testing.T) {
	ds, err := workload.Generate(workload.Spec{
		Name: "client-mono", Scenes: 2, Photos: 20, Subjects: 2,
		SubjectRate: 0.2, Resolution: 32, Seed: 11, SceneBase: 500,
	})
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.Config{})
	if _, err := eng.Build(ds.Photos); err != nil {
		t.Fatal(err)
	}
	gens := &store.Generations{Path: filepath.Join(t.TempDir(), "snap")} // monolithic
	srv, err := server.New(server.Config{Engine: eng, Snapshots: gens})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := New(hs.URL, WithRetries(0, time.Millisecond))
	ctx := context.Background()
	if _, err := c.SnapshotSave(ctx); err != nil {
		t.Fatalf("SnapshotSave: %v", err)
	}
	replica := &store.Generations{Path: filepath.Join(t.TempDir(), "snap"), Chunked: true}
	if _, err := c.CatchUp(ctx, replica); err == nil || !strings.Contains(err.Error(), "409") {
		t.Fatalf("CatchUp against monolithic store: got %v, want 409", err)
	}
}
