package server

import (
	"encoding/json"
	"errors"
	"net/http"

	"github.com/fastrepro/fast/internal/store"
)

// Replica catch-up endpoint. A replica recovering from (or cold-starting
// into) a cluster does not need the whole snapshot from its primary — only
// the chunks its local content-addressed store is missing. The protocol is
// replica-driven: the replica reads its own chunk set locally
// (store.Generations.LiveChunkIDs) and asks for the rest:
//
//	POST /v1/snapshot/fetch   → body {have: [hex ids]}; response is a
//	                            FASTDLT1 delta stream (manifest + chunks
//	                            not in have) for the newest generation
//
// The replica applies the stream through store.Generations.ApplyDelta,
// which lands chunks durably one at a time and publishes the manifest only
// once complete — so an interrupted transfer costs nothing but the bytes
// already moved, and the retry is automatically diff-only.

// handleSnapshotFetch streams a delta for the newest persisted generation:
// its manifest plus every chunk not in the request's have-list. Like the
// other snapshot endpoints it bypasses admission — the stream reads the
// immutable chunk store under the generation lock and does not touch the
// engine. Errors detected before the first byte (no store, monolithic
// generation, bad have-list) get proper JSON statuses; a failure
// mid-stream surfaces to the client as a truncated body, which ApplyDelta
// rejects.
func (s *Server) handleSnapshotFetch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return
	}
	if s.draining.Load() {
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	if s.cfg.Snapshots == nil {
		writeError(w, http.StatusNotImplemented, "server has no persistent snapshot store (start fastd with -final-snapshot)")
		return
	}
	var req FetchRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return
	}
	have := make(map[store.ChunkID]struct{}, len(req.Have))
	for _, s := range req.Have {
		id, err := store.ParseChunkID(s)
		if err != nil {
			writeError(w, http.StatusBadRequest, "%v", err)
			return
		}
		have[id] = struct{}{}
	}

	// WriteDelta validates the generation before emitting anything, so wrap
	// the writer to detect whether a clean JSON error is still possible.
	cw := &countingWriter{w: w}
	if _, err := s.cfg.Snapshots.WriteDelta(cw, have); err != nil {
		if cw.n == 0 {
			switch {
			case errors.Is(err, store.ErrNotChunked):
				writeError(w, http.StatusConflict, "%v", err)
			default:
				writeError(w, http.StatusInternalServerError, "snapshot delta failed: %v", err)
			}
			return
		}
		// Mid-stream failure: the truncated body fails the client's decode.
		return
	}
	s.met.snapshots.Inc()
}

// countingWriter tracks whether any response bytes have been committed,
// setting the delta content type just before the first byte.
type countingWriter struct {
	w http.ResponseWriter
	n int64
}

func (c *countingWriter) Write(b []byte) (int, error) {
	if c.n == 0 && len(b) > 0 {
		c.w.Header().Set("Content-Type", "application/octet-stream")
	}
	n, err := c.w.Write(b)
	c.n += int64(n)
	return n, err
}
