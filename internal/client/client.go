// Package client is the Go client for the fastd serving API
// (internal/server): typed wrappers over the /v1 endpoints with context
// propagation, per-request timeouts, and bounded retries that honor the
// server's admission-control backpressure (429 + Retry-After, 503).
package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"github.com/fastrepro/fast/internal/core"
	"github.com/fastrepro/fast/internal/failpoint"
	"github.com/fastrepro/fast/internal/server"
	"github.com/fastrepro/fast/internal/simimg"
)

// Client talks to one fastd instance. It is safe for concurrent use.
type Client struct {
	base      string
	hc        *http.Client
	timeout   time.Duration // per-attempt timeout; applied after options so WithTimeout/WithHTTPClient compose in any order
	retries   int           // attempts beyond the first
	retryWait time.Duration // base backoff, doubled per attempt
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the transport (tests use the in-process
// listener's client; production tunes pooling).
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// WithTimeout sets the per-attempt timeout (default 30s). It composes with
// WithHTTPClient in either order: the timeout is applied to the final
// transport once all options have run.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetries sets how many times a failed request is retried and the base
// backoff between attempts (doubled each retry). Only transport errors and
// backpressure statuses (429, 503) are retried; other HTTP errors are
// returned immediately. Default: 3 retries, 100ms base.
func WithRetries(n int, base time.Duration) Option {
	return func(c *Client) { c.retries, c.retryWait = n, base }
}

// New returns a client for the server at base (e.g. "http://127.0.0.1:8093").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base:      strings.TrimRight(base, "/"),
		hc:        &http.Client{Timeout: 30 * time.Second},
		retries:   3,
		retryWait: 100 * time.Millisecond,
	}
	for _, o := range opts {
		o(c)
	}
	if c.timeout > 0 {
		// Copy rather than mutate: the http.Client may be caller-owned
		// (WithHTTPClient) and shared with other code.
		hc := *c.hc
		hc.Timeout = c.timeout
		c.hc = &hc
	}
	return c
}

// retryable reports whether a response status is worth retrying, and the
// wait the server asked for (0 if none). Retry-After is parsed in both
// RFC 9110 forms: delay-seconds and HTTP-date.
func retryable(resp *http.Response) (bool, time.Duration) {
	if resp.StatusCode != http.StatusTooManyRequests && resp.StatusCode != http.StatusServiceUnavailable {
		return false, 0
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil && secs >= 0 {
			return true, time.Duration(secs) * time.Second
		}
		if at, err := http.ParseTime(ra); err == nil {
			if d := time.Until(at); d > 0 {
				return true, d
			}
		}
	}
	return true, 0
}

// do issues one request with retries. body is re-sent from the buffered
// payload on each attempt; out (when non-nil) receives the decoded JSON of
// a 2xx response.
func (c *Client) do(ctx context.Context, method, path string, payload []byte, contentType string, out interface{}) error {
	var lastErr error
	wait := c.retryWait
	for attempt := 0; attempt <= c.retries; attempt++ {
		if attempt > 0 {
			// The caller's deadline caps total elapsed time: if the next
			// backoff cannot complete before it, stop now and report the
			// last real failure instead of sleeping into a guaranteed
			// context error.
			if dl, ok := ctx.Deadline(); ok && time.Now().Add(wait).After(dl) {
				return fmt.Errorf("client: %s %s: deadline would expire during %v backoff (last error: %w)",
					method, path, wait, lastErr)
			}
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return fmt.Errorf("client: %s %s: %w (last error: %v)", method, path, ctx.Err(), lastErr)
			}
			wait *= 2
		}
		var body io.Reader
		if payload != nil {
			body = bytes.NewReader(payload)
		}
		req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
		if err != nil {
			return err
		}
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		if err := failpoint.Eval(failpoint.ClientTransport); err != nil {
			lastErr = err // injected transport fault: retry like a real one
			continue
		}
		resp, err := c.hc.Do(req)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			lastErr = err // transport error: retry
			continue
		}
		if resp.StatusCode == http.StatusOK {
			if out != nil {
				err = json.NewDecoder(resp.Body).Decode(out)
			}
			resp.Body.Close()
			return err
		}
		retry, serverWait := retryable(resp)
		lastErr = decodeError(resp)
		resp.Body.Close()
		if !retry {
			return lastErr
		}
		if serverWait > wait {
			wait = serverWait
		}
	}
	return fmt.Errorf("client: %s %s failed after %d attempts: %w", method, path, c.retries+1, lastErr)
}

// decodeError turns a non-2xx reply into an error carrying the server's
// message when it sent one. It wraps the typed engine error the reply's
// code names, so errors.Is(err, core.ErrNotIndexed) holds across the wire.
func decodeError(resp *http.Response) error {
	var er server.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 1<<16)).Decode(&er); err == nil && er.Error != "" {
		return &serverError{status: resp.StatusCode, msg: er.Error, typed: server.CodeError(er.Code)}
	}
	return &serverError{status: resp.StatusCode}
}

// serverError is a non-2xx reply. It unwraps to the typed engine error its
// code named, if any.
type serverError struct {
	status int
	msg    string
	typed  error
}

func (e *serverError) Error() string {
	if e.msg == "" {
		return fmt.Sprintf("client: server returned %d", e.status)
	}
	return fmt.Sprintf("client: server returned %d: %s", e.status, e.msg)
}

func (e *serverError) Unwrap() error { return e.typed }

func marshalJSON(v interface{}) ([]byte, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("client: encoding request: %w", err)
	}
	return b, nil
}

// Query runs one probe image and returns the ranked hits. Use
// QueryDetailed to also observe a cluster router's partial-result flag.
func (c *Client) Query(ctx context.Context, img *simimg.Image, topK int) ([]core.SearchResult, error) {
	results, _, err := c.QueryDetailed(ctx, img, topK)
	return results, err
}

// Insert indexes one photo under the given ID.
func (c *Client) Insert(ctx context.Context, id uint64, img *simimg.Image) error {
	wi, err := server.EncodeImage(img)
	if err != nil {
		return err
	}
	payload, err := marshalJSON(server.InsertRequest{ID: id, Image: wi})
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, "/v1/insert", payload, "application/json", nil)
}

// Delete removes one photo from the index.
func (c *Client) Delete(ctx context.Context, id uint64) error {
	payload, err := marshalJSON(server.DeleteRequest{ID: id})
	if err != nil {
		return err
	}
	return c.do(ctx, http.MethodPost, "/v1/delete", payload, "application/json", nil)
}

// Snapshot streams a hot snapshot of the server's index into w and returns
// the byte count. Snapshots are not retried: a half-written sink cannot be
// rewound by the client.
func (c *Client) Snapshot(ctx context.Context, w io.Writer) (int64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/snapshot", nil)
	if err != nil {
		return 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, decodeError(resp)
	}
	return io.Copy(w, resp.Body)
}

// Restore replaces the server's engine with the snapshot read from r.
// Not retried for the same reason uploads generally aren't: r may not be
// rewindable.
func (c *Client) Restore(ctx context.Context, r io.Reader) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/restore", r)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return decodeError(resp)
	}
	return nil
}

// Stats fetches the serving and engine counters.
func (c *Client) Stats(ctx context.Context) (server.Stats, error) {
	var st server.Stats
	err := c.do(ctx, http.MethodGet, "/v1/stats", nil, "", &st)
	return st, err
}

// Healthy returns nil when the server answers /healthz with 200.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, "", nil)
}
