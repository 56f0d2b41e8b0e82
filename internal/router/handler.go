package router

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"github.com/fastrepro/fast/internal/server"
)

// The router's HTTP surface speaks the same /v1 wire format as a single
// fastd (internal/server/wire.go), so fastctl and internal/client work
// against a router unchanged. The one addition is the "partial" flag in
// query responses; the subtractions are the snapshot/restore endpoints,
// which are per-shard concerns (a router holds no index to snapshot).

// maxRouterBody bounds request bodies (probes and inserts are single
// images; the serving layer's own default exists for whole-snapshot
// restores the router doesn't accept).
const maxRouterBody = 64 << 20

// Handler returns the router's /v1 mux.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/v1/query", rt.handleQuery)
	mux.HandleFunc("/v1/insert", rt.handleInsert)
	mux.HandleFunc("/v1/delete", rt.handleDelete)
	mux.HandleFunc("/v1/ring", rt.handleRing)
	mux.HandleFunc("/v1/stats", rt.handleStats)
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...interface{}) {
	writeJSON(w, status, server.ErrorResponse{Error: fmt.Sprintf(format, args...)})
}

func decode(w http.ResponseWriter, r *http.Request, body interface{}) bool {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "use POST")
		return false
	}
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRouterBody))
	if err := dec.Decode(body); err != nil {
		writeError(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if err := rt.Healthy(r.Context()); err != nil {
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	var req server.QueryRequest
	if !decode(w, r, &req) {
		return
	}
	img, err := server.DecodeImage(req.Image)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	results, meta, err := rt.Query(r.Context(), img, req.TopK)
	if err != nil {
		if errors.Is(err, ErrQuorumLost) {
			writeError(w, http.StatusServiceUnavailable, "%v", err)
		} else {
			writeError(w, http.StatusUnprocessableEntity, "query failed: %v", err)
		}
		return
	}
	out := server.QueryResponse{
		Results: make([]server.WireResult, len(results)),
		Partial: meta.Partial,
		Stale:   meta.Stale,
	}
	for i, res := range results {
		out.Results[i] = server.WireResult{ID: res.ID, Score: res.Score}
	}
	writeJSON(w, http.StatusOK, out)
}

func (rt *Router) handleInsert(w http.ResponseWriter, r *http.Request) {
	var req server.InsertRequest
	if !decode(w, r, &req) {
		return
	}
	img, err := server.DecodeImage(req.Image)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	if err := rt.Insert(r.Context(), req.ID, img); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, server.NewErrorResponse("insert failed", err))
		return
	}
	writeJSON(w, http.StatusOK, server.OKResponse{OK: true})
}

func (rt *Router) handleDelete(w http.ResponseWriter, r *http.Request) {
	var req server.DeleteRequest
	if !decode(w, r, &req) {
		return
	}
	if err := rt.Delete(r.Context(), req.ID); err != nil {
		writeJSON(w, http.StatusUnprocessableEntity, server.NewErrorResponse("delete failed", err))
		return
	}
	writeJSON(w, http.StatusOK, server.OKResponse{OK: true})
}

// handleRing serves GET (status) and POST (prepare/commit/abort) /v1/ring
// — the router's half of the live reconfiguration protocol.
func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		writeJSON(w, http.StatusOK, rt.RingStatus())
	case http.MethodPost:
		var req server.RingUpdateRequest
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRouterBody))
		if err := dec.Decode(&req); err != nil {
			writeError(w, http.StatusBadRequest, "decoding request: %v", err)
			return
		}
		st, err := rt.RingPhase(req)
		if err != nil {
			writeError(w, http.StatusConflict, "%v", err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	default:
		writeError(w, http.StatusMethodNotAllowed, "use GET or POST")
	}
}

func (rt *Router) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, "use GET")
		return
	}
	writeJSON(w, http.StatusOK, rt.Stats(r.Context()))
}
