package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to one dtnsimd instance.
type Client struct {
	base string
	http *http.Client
}

// New returns a client for the daemon at base (e.g.
// "http://localhost:8642"). A trailing slash is tolerated.
func New(base string) *Client {
	return &Client{base: strings.TrimRight(base, "/"), http: &http.Client{}}
}

// StatusError is returned for any non-2xx response, carrying the HTTP
// status code and the server's error message.
type StatusError struct {
	Code    int
	Message string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("dtnsimd: %s (HTTP %d)", e.Message, e.Code)
}

// ErrJobNotDone wraps StatusError responses for result fetches on jobs
// that have not (yet) produced a result.
var ErrJobNotDone = errors.New("client: job result not available")

// do issues one request and decodes a non-2xx body into a StatusError.
func (c *Client) do(ctx context.Context, method, path string, body []byte) (*http.Response, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode/100 != 2 {
		defer resp.Body.Close()
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
		var eb ErrorBody
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &eb) == nil && eb.Error != "" {
			msg = eb.Error
		}
		return nil, &StatusError{Code: resp.StatusCode, Message: msg}
	}
	return resp, nil
}

// getJSON fetches path and decodes the 2xx JSON body into v.
func (c *Client) getJSON(ctx context.Context, path string, v any) error {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// maxPresize bounds the buffer a declared Content-Length reserves
// before any byte arrives, so a lying or absurd length cannot force a
// huge allocation. Longer bodies grow as they are read.
const maxPresize = 8 << 20

// getBytes fetches path and returns the raw 2xx body — the form the
// byte-identity guarantees apply to.
func (c *Client) getBytes(ctx context.Context, path string) ([]byte, error) {
	resp, err := c.do(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	n := resp.ContentLength
	if n < 0 || n > maxPresize {
		return io.ReadAll(resp.Body)
	}
	// A body shorter than declared is an error, never a short success.
	data := make([]byte, n)
	if _, err := io.ReadFull(resp.Body, data); err != nil {
		return nil, err
	}
	return data, nil
}

// Submit posts a job. Exactly one of req.Scenario and req.Sweep must
// be set; spec validation errors come back as a 400 StatusError.
func (c *Client) Submit(ctx context.Context, req SubmitRequest) (SubmitResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return SubmitResponse{}, err
	}
	resp, err := c.do(ctx, http.MethodPost, "/v1/jobs", body)
	if err != nil {
		return SubmitResponse{}, err
	}
	defer resp.Body.Close()
	var out SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return SubmitResponse{}, err
	}
	return out, nil
}

// SubmitScenario submits a scenario spec document (dtnsim JSON
// scenario format).
func (c *Client) SubmitScenario(ctx context.Context, spec []byte) (SubmitResponse, error) {
	return c.Submit(ctx, SubmitRequest{Scenario: spec})
}

// SubmitSweep submits a sweep spec document.
func (c *Client) SubmitSweep(ctx context.Context, spec []byte) (SubmitResponse, error) {
	return c.Submit(ctx, SubmitRequest{Sweep: spec})
}

// Status fetches a job's current state.
func (c *Client) Status(ctx context.Context, id string) (JobStatus, error) {
	var st JobStatus
	err := c.getJSON(ctx, "/v1/jobs/"+id, &st)
	return st, err
}

// Cancel asks the daemon to cancel a job. Cancelling a terminal job is
// a no-op.
func (c *Client) Cancel(ctx context.Context, id string) error {
	resp, err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil)
	if err != nil {
		return err
	}
	return resp.Body.Close()
}

// Wait polls the job until it reaches a terminal state or ctx expires.
// poll <= 0 defaults to 200ms.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		st, err := c.Status(ctx, id)
		if err != nil {
			return JobStatus{}, err
		}
		if st.Terminal() {
			return st, nil
		}
		select {
		case <-ctx.Done():
			return st, ctx.Err()
		case <-t.C:
		}
	}
}

// ResultBytes fetches a done job's result body verbatim. A 409
// (not done yet) wraps ErrJobNotDone.
func (c *Client) ResultBytes(ctx context.Context, id string) ([]byte, error) {
	return c.artifact(ctx, "/v1/jobs/"+id+"/result")
}

// SeriesCSV fetches a done job's time-series CSV: the periodic metric
// samples for a scenario job, the per-metric load-sweep tables for a
// sweep job.
func (c *Client) SeriesCSV(ctx context.Context, id string) ([]byte, error) {
	return c.artifact(ctx, "/v1/jobs/"+id+"/series")
}

// EventsCSV fetches a scenario job's full engine event stream.
func (c *Client) EventsCSV(ctx context.Context, id string) ([]byte, error) {
	return c.artifact(ctx, "/v1/jobs/"+id+"/events")
}

func (c *Client) artifact(ctx context.Context, path string) ([]byte, error) {
	data, err := c.getBytes(ctx, path)
	var se *StatusError
	if errors.As(err, &se) && se.Code == http.StatusConflict {
		return nil, fmt.Errorf("%w: %s", ErrJobNotDone, se.Message)
	}
	return data, err
}

// RunResult fetches and decodes a scenario job's result.
func (c *Client) RunResult(ctx context.Context, id string) (*RunResult, error) {
	data, err := c.ResultBytes(ctx, id)
	if err != nil {
		return nil, err
	}
	var r RunResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// SweepResult fetches and decodes a sweep job's result.
func (c *Client) SweepResult(ctx context.Context, id string) (*SweepResult, error) {
	data, err := c.ResultBytes(ctx, id)
	if err != nil {
		return nil, err
	}
	var r SweepResult
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, err
	}
	return &r, nil
}

// Metrics fetches the daemon's counters.
func (c *Client) Metrics(ctx context.Context) (Metrics, error) {
	var m Metrics
	err := c.getJSON(ctx, "/metrics", &m)
	return m, err
}

// Specs fetches the registry listings.
func (c *Client) Specs(ctx context.Context) (Specs, error) {
	var s Specs
	err := c.getJSON(ctx, "/v1/specs", &s)
	return s, err
}

// Healthy reports whether /healthz answers 200.
func (c *Client) Healthy(ctx context.Context) bool {
	resp, err := c.do(ctx, http.MethodGet, "/healthz", nil)
	if err != nil {
		return false
	}
	resp.Body.Close()
	return true
}
