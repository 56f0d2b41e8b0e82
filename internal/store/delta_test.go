package store

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/fastrepro/fast/internal/failpoint"
)

// openManifest parses a generation file as a chunk manifest.
func openManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if !sniffManifest(br) {
		return nil, errors.New("not a manifest")
	}
	return ReadManifest(br)
}

// haveSet collects a replica's advertised chunk IDs as WriteDelta's input.
func haveSet(t *testing.T, g *Generations) map[ChunkID]struct{} {
	t.Helper()
	ids, err := g.LiveChunkIDs()
	if err != nil {
		t.Fatalf("LiveChunkIDs: %v", err)
	}
	have := make(map[ChunkID]struct{}, len(ids))
	for _, id := range ids {
		have[id] = struct{}{}
	}
	return have
}

// shipDelta runs one primary→replica catch-up round trip in-process.
func shipDelta(t *testing.T, primary, replica *Generations) (DeltaStats, ApplyResult) {
	t.Helper()
	var buf bytes.Buffer
	ds, err := primary.WriteDelta(&buf, haveSet(t, replica))
	if err != nil {
		t.Fatalf("WriteDelta: %v", err)
	}
	ar, err := replica.ApplyDelta(&buf)
	if err != nil {
		t.Fatalf("ApplyDelta: %v", err)
	}
	return ds, ar
}

// TestDeltaColdThenIncrementalCatchUp is the protocol's core contract: a
// cold replica receives the full chunk set once, and after primary churn
// the next catch-up ships only the diff — transfer proportional to change,
// with the recovered payload byte-identical at every step.
func TestDeltaColdThenIncrementalCatchUp(t *testing.T) {
	primary := chunkedGen(t)
	replica := chunkedGen(t)
	base := payload(200_000, 61)
	if _, err := primary.WriteSnapshot(blob(base)); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	ds, ar := shipDelta(t, primary, replica)
	if ds.ChunksSkipped != 0 || ds.ChunksSent != ds.Chunks || ds.Chunks == 0 {
		t.Fatalf("cold delta should ship everything: %+v", ds)
	}
	if ar.ChunksFetched != ar.Chunks || ar.ChunksReused != 0 {
		t.Fatalf("cold apply should fetch everything: %+v", ar)
	}
	if got, _ := recoverBytes(t, replica); !bytes.Equal(got, base) {
		t.Fatalf("cold replica recovered %d bytes, payload differs", len(got))
	}

	// ~2.5% churn on the primary, then a second catch-up.
	next := churn(base, 5_000, 62)
	if _, err := primary.WriteSnapshot(blob(next)); err != nil {
		t.Fatalf("WriteSnapshot churn: %v", err)
	}
	ds2, ar2 := shipDelta(t, primary, replica)
	if ds2.ChunksSkipped == 0 {
		t.Fatalf("incremental delta reused nothing: %+v", ds2)
	}
	if ar2.ChunksReused != ds2.ChunksSkipped || ar2.ChunksFetched != ds2.ChunksSent {
		t.Fatalf("primary/replica accounting disagrees: sent %+v, applied %+v", ds2, ar2)
	}
	transferred := ar2.BytesFetched + ar2.ManifestBytes
	if transferred >= ar2.PayloadBytes/2 {
		t.Fatalf("incremental transfer %d bytes is not proportional to churn (payload %d)",
			transferred, ar2.PayloadBytes)
	}
	if got, _ := recoverBytes(t, replica); !bytes.Equal(got, next) {
		t.Fatal("replica payload differs after incremental catch-up")
	}

	// Replica-side dedup counters must surface the reuse (the CI smoke and
	// fastctl catchup -expect-reuse read these through /v1/stats).
	st := replica.Stats()
	if st.ChunksReused < int64(ar2.ChunksReused) || st.Snapshots != 2 {
		t.Fatalf("replica stats missed the delta accounting: %+v", st)
	}
}

// TestDeltaInterruptedMidStreamRecovery drives the crash-matrix row for
// catch-up: the store/chunk-fetch failpoint kills the transfer partway
// through. The replica's previous generation must survive untouched, the
// resumed catch-up must be diff-only (chunks that landed before the cut are
// not re-shipped), the final payload must be byte-identical, and the
// post-publish GC sweep must leave no orphan chunks behind.
func TestDeltaInterruptedMidStreamRecovery(t *testing.T) {
	primary := chunkedGen(t)
	replica := chunkedGen(t)
	old := payload(120_000, 71)
	if _, err := primary.WriteSnapshot(blob(old)); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	shipDelta(t, primary, replica) // replica is in sync at "old"

	next := churn(old, 60_000, 72) // big churn so the diff spans many chunks
	if _, err := primary.WriteSnapshot(blob(next)); err != nil {
		t.Fatalf("WriteSnapshot churn: %v", err)
	}

	var buf bytes.Buffer
	ds, err := primary.WriteDelta(&buf, haveSet(t, replica))
	if err != nil {
		t.Fatalf("WriteDelta: %v", err)
	}
	if ds.ChunksSent < 4 {
		t.Fatalf("need a multi-chunk diff to interrupt, got %d chunks", ds.ChunksSent)
	}

	// Cut the stream after two chunks have landed.
	cut := 2
	failpoint.Enable(failpoint.StoreChunkFetch, failpoint.Policy{Action: failpoint.Error, Skip: cut})
	_, err = replica.ApplyDelta(bytes.NewReader(buf.Bytes()))
	failpoint.Disable(failpoint.StoreChunkFetch)
	if !errors.Is(err, failpoint.ErrInjected) {
		t.Fatalf("interrupted apply returned %v, want injected fault", err)
	}

	// The previous generation is untouched: the replica still serves "old".
	// (Read via OpenPayload, not Recover — a recovery here would run the
	// orphan sweep and reclaim the landed-but-unreferenced chunks, which is
	// legal but would make the resume a full transfer again.)
	rc, err := OpenPayload(replica.Path)
	if err != nil {
		t.Fatalf("OpenPayload after interruption: %v", err)
	}
	got, err := io.ReadAll(rc)
	rc.Close()
	if err != nil || !bytes.Equal(got, old) {
		t.Fatalf("interrupted catch-up disturbed the replica's previous generation (err %v)", err)
	}

	// Resume: the chunks that landed stay durable and are advertised, so
	// the second delta ships strictly less than the first.
	var buf2 bytes.Buffer
	ds2, err := primary.WriteDelta(&buf2, haveSet(t, replica))
	if err != nil {
		t.Fatalf("WriteDelta resume: %v", err)
	}
	if ds2.ChunksSent >= ds.ChunksSent {
		t.Fatalf("resume re-shipped everything: first sent %d, resume sent %d", ds.ChunksSent, ds2.ChunksSent)
	}
	ar, err := replica.ApplyDelta(&buf2)
	if err != nil {
		t.Fatalf("ApplyDelta resume: %v", err)
	}
	if got, _ := recoverBytes(t, replica); !bytes.Equal(got, next) {
		t.Fatal("replica payload differs after resumed catch-up")
	}

	// No orphans: after apply's GC pass (plus the recovery sweep above),
	// every chunk in the replica store is referenced by a live generation.
	live := make(map[ChunkID]struct{})
	for _, p := range replica.Paths() {
		pm, err := openManifest(p)
		if err != nil {
			continue
		}
		for _, c := range pm.Chunks {
			live[c.ID] = struct{}{}
		}
	}
	ids, err := replica.LiveChunkIDs()
	if err != nil {
		t.Fatalf("LiveChunkIDs: %v", err)
	}
	for _, id := range ids {
		if _, ok := live[id]; !ok {
			t.Fatalf("orphan chunk %s survived the post-catch-up sweep (gc reported %d chunks)", id, ar.GCChunks)
		}
	}
}

// TestDeltaNotChunkedRefusedBeforeFirstByte: a monolithic generation has no
// chunk set to diff; WriteDelta must fail with ErrNotChunked without
// emitting any stream bytes (so the HTTP handler can still send a clean
// JSON error).
func TestDeltaNotChunkedRefusedBeforeFirstByte(t *testing.T) {
	g := &Generations{Path: filepath.Join(t.TempDir(), "snap")}
	if _, err := g.Write(blob(payload(10_000, 81))); err != nil {
		t.Fatalf("Write: %v", err)
	}
	var buf bytes.Buffer
	_, err := g.WriteDelta(&buf, nil)
	if !errors.Is(err, ErrNotChunked) {
		t.Fatalf("got %v, want ErrNotChunked", err)
	}
	if buf.Len() != 0 {
		t.Fatalf("WriteDelta emitted %d bytes before failing", buf.Len())
	}
}

// TestApplyDeltaRejectsCorruption: a flipped chunk byte, a truncated
// stream, and a bad magic must each fail without publishing a generation.
func TestApplyDeltaRejectsCorruption(t *testing.T) {
	primary := chunkedGen(t)
	if _, err := primary.WriteSnapshot(blob(payload(80_000, 91))); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}
	var buf bytes.Buffer
	if _, err := primary.WriteDelta(&buf, nil); err != nil {
		t.Fatalf("WriteDelta: %v", err)
	}
	stream := buf.Bytes()

	cases := map[string][]byte{
		"bad magic":    append([]byte("NOTDELTA"), stream[8:]...),
		"flipped byte": flipByte(stream, len(stream)-10),
		"truncated":    stream[:len(stream)-5],
	}
	for name, corrupt := range cases {
		replica := chunkedGen(t)
		if _, err := replica.ApplyDelta(bytes.NewReader(corrupt)); !errors.Is(err, ErrBadDelta) {
			t.Errorf("%s: got %v, want ErrBadDelta", name, err)
		}
		if _, err := replica.Recover(func(string, io.Reader) error { return nil }); !errors.Is(err, ErrNoSnapshot) {
			t.Errorf("%s: rejected delta still published a generation (recover: %v)", name, err)
		}
		if _, err := replica.LiveChunkIDs(); err != nil {
			t.Errorf("%s: chunk store unreadable after rejected delta: %v", name, err)
		}
	}
}

// TestParseChunkIDRoundTrip covers the hex wire form used by
// /v1/snapshot/fetch.
func TestParseChunkIDRoundTrip(t *testing.T) {
	var id ChunkID
	for i := range id {
		id[i] = byte(i * 7)
	}
	got, err := ParseChunkID(id.String())
	if err != nil || got != id {
		t.Fatalf("round trip: got %v, %v", got, err)
	}
	for _, bad := range []string{"", "zz", strings.Repeat("ab", 31), strings.Repeat("ab", 33)} {
		if _, err := ParseChunkID(bad); err == nil {
			t.Errorf("ParseChunkID(%q) accepted invalid input", bad)
		}
	}
}

func flipByte(b []byte, at int) []byte {
	out := append([]byte(nil), b...)
	out[at] ^= 0xff
	return out
}
