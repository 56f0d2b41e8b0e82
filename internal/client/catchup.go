package client

import (
	"bytes"
	"context"
	"io"
	"net/http"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/simimg"
	"github.com/fastrepro/fast/internal/store"
)

// Replica catch-up: the client half of the chunk-diff protocol (see
// internal/server/catchup.go). CatchUp is the whole loop — advertise the
// local chunk set, fetch the delta, apply it — and is what fastctl catchup
// and a recovering replica shard run.

// QueryDetailed is Query plus the router's partial-result flag: partial is
// true when the answer came from a cluster router that lost one or more
// shards inside quorum, so the results cover the reachable shards only.
// Against a single fastd it is always false.
func (c *Client) QueryDetailed(ctx context.Context, img *simimg.Image, topK int) ([]core.SearchResult, bool, error) {
	results, out, err := c.QueryFull(ctx, img, topK)
	return results, out.Partial, err
}

// SnapshotSave asks the server to persist its engine into its generation
// store and returns the write accounting (chunks reused vs written).
func (c *Client) SnapshotSave(ctx context.Context) (store.WriteResult, error) {
	var res store.WriteResult
	err := c.do(ctx, http.MethodPost, "/v1/snapshot/save", nil, "", &res)
	return res, err
}

// FetchDelta requests a snapshot delta relative to the given have-set and
// returns the raw FASTDLT1 stream. Not retried: the response is a stream
// the caller consumes incrementally (and a partially applied delta makes
// the retry cheaper anyway — apply, then fetch again with the larger
// have-set). The caller must Close the reader.
func (c *Client) FetchDelta(ctx context.Context, have []store.ChunkID) (io.ReadCloser, error) {
	hex := make([]string, len(have))
	for i, id := range have {
		hex[i] = id.String()
	}
	payload, err := marshalJSON(server.FetchRequest{Have: hex})
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/snapshot/fetch", bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		err := decodeError(resp)
		resp.Body.Close()
		return nil, err
	}
	return resp.Body, nil
}

// CatchUp synchronizes a local generation store with the server's newest
// snapshot: advertise the local chunk inventory, fetch the diff, apply it.
// The applied manifest becomes the local primary generation, recoverable
// through the normal store.Generations.Recover path. Transfer cost is
// proportional to the chunk diff; a cold (empty) store receives the full
// set, an interrupted run resumes diff-only because landed chunks are
// durable and re-advertised.
func (c *Client) CatchUp(ctx context.Context, g *store.Generations) (store.ApplyResult, error) {
	have, err := g.LiveChunkIDs()
	if err != nil {
		return store.ApplyResult{}, err
	}
	body, err := c.FetchDelta(ctx, have)
	if err != nil {
		return store.ApplyResult{}, err
	}
	defer body.Close()
	return g.ApplyDelta(body)
}
