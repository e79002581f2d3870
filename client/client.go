package client

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// Client talks to one espresso serve endpoint.
type Client struct {
	base  string
	token string
	http  *http.Client
}

// Option configures New.
type Option func(*Client)

// WithToken sets the static bearer token sent as Authorization on every
// request.
func WithToken(token string) Option {
	return func(c *Client) { c.token = token }
}

// WithHTTPClient substitutes the underlying *http.Client (timeouts,
// transports, test doubles).
func WithHTTPClient(h *http.Client) Option {
	return func(c *Client) { c.http = h }
}

// New builds a client for the server at base
// (e.g. "http://127.0.0.1:8080").
func New(base string, opts ...Option) *Client {
	c := &Client{
		base: strings.TrimRight(base, "/"),
		http: &http.Client{Timeout: 5 * time.Minute},
	}
	for _, o := range opts {
		o(c)
	}
	return c
}

// do runs one request: marshals in (when non-nil), decodes the error
// envelope on non-2xx into an *APIError, and decodes the body into out
// (when non-nil).
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("client: encoding request: %w", err)
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: building request: %w", err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return fmt.Errorf("client: reading %s %s response: %w", method, path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		var eb ErrorBody
		if err := json.Unmarshal(data, &eb); err != nil || eb.Error.Code == "" {
			return &APIError{
				Status:  resp.StatusCode,
				Code:    CodeInternal,
				Message: fmt.Sprintf("non-JSON error response: %.200s", data),
			}
		}
		eb.Error.Status = resp.StatusCode
		return &eb.Error
	}
	if out != nil {
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("client: decoding %s %s response: %w", method, path, err)
		}
	}
	return nil
}

// Select runs a synchronous selection on the server.
func (c *Client) Select(ctx context.Context, req SelectRequest) (*SelectResponse, error) {
	var out SelectResponse
	if err := c.do(ctx, http.MethodPost, "/v1/select", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Predict evaluates an explicit strategy's iteration time on the server.
func (c *Client) Predict(ctx context.Context, req PredictRequest) (*SelectResponse, error) {
	var out SelectResponse
	if err := c.do(ctx, http.MethodPost, "/v1/predict", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitJob enqueues an asynchronous job and returns its queued status.
func (c *Client) SubmitJob(ctx context.Context, req JobRequest) (*JobStatus, error) {
	var out JobStatus
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job fetches one job's status.
func (c *Client) Job(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Jobs lists every job in creation order.
func (c *Client) Jobs(ctx context.Context) ([]JobStatus, error) {
	var out JobList
	if err := c.do(ctx, http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out.Jobs, nil
}

// CancelJob requests cancellation of a queued or running job. The
// returned status is the state at the moment of the request; poll Job
// until it turns terminal.
func (c *Client) CancelJob(ctx context.Context, id string) (*JobStatus, error) {
	var out JobStatus
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+id, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// WaitJob polls a job until it reaches a terminal state or ctx expires.
func (c *Client) WaitJob(ctx context.Context, id string, poll time.Duration) (*JobStatus, error) {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	t := time.NewTicker(poll)
	defer t.Stop()
	for {
		js, err := c.Job(ctx, id)
		if err != nil {
			return nil, err
		}
		switch js.State {
		case "succeeded", "failed", "canceled":
			return js, nil
		}
		select {
		case <-ctx.Done():
			return js, ctx.Err()
		case <-t.C:
		}
	}
}

// Report fetches one persisted report body, verbatim.
func (c *Client) Report(ctx context.Context, id string) (json.RawMessage, error) {
	var out json.RawMessage
	if err := c.do(ctx, http.MethodGet, "/v1/reports/"+id, nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Reports lists every persisted report.
func (c *Client) Reports(ctx context.Context) ([]ReportMeta, error) {
	var out ReportList
	if err := c.do(ctx, http.MethodGet, "/v1/reports", nil, &out); err != nil {
		return nil, err
	}
	return out.Reports, nil
}

// Diff compares two persisted select/predict reports.
func (c *Client) Diff(ctx context.Context, a, b string) (*DiffResponse, error) {
	var out DiffResponse
	if err := c.do(ctx, http.MethodGet, "/v1/reports/"+a+"/diff/"+b, nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Healthz checks liveness (the unauthenticated observability probe).
func (c *Client) Healthz(ctx context.Context) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/healthz", nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // drain for keep-alive
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("client: healthz returned %d", resp.StatusCode)
	}
	return nil
}
