package serve

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"espresso/internal/obs"
	"espresso/internal/obs/flight"
	"espresso/internal/obs/wtrace"
)

// TestOptionComposition mounts WithFlight and two WithHandler mounts on
// one listener and checks every surface answers: the API mount, the
// flight listing, /metrics, /healthz, and the index advertising all of
// them. This is exactly how espresso serve composes its mux.
func TestOptionComposition(t *testing.T) {
	m := obs.NewMetrics()
	m.Counter("compose.hits").Inc()

	tr := wtrace.New()
	fr := flight.New(flight.Config{})
	req := tr.Start("select")
	fr.Complete(req, "case", 1, time.Millisecond, flight.OutcomeOK, nil)
	req.Release()

	api := http.NewServeMux()
	api.HandleFunc("/v1/ping", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, "pong")
	})

	srv, err := Start("127.0.0.1:0", m,
		WithFlight(fr),
		WithHandler("/v1/", api),
		WithHandler("/extra", http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			fmt.Fprint(w, "extra")
		})))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	defer srv.Close()

	// addr ":0" resolved to a usable URL.
	if !strings.HasPrefix(srv.URL, "http://127.0.0.1:") || strings.HasSuffix(srv.URL, ":0") {
		t.Fatalf("URL did not resolve the port: %q", srv.URL)
	}

	for path, want := range map[string]string{
		"/v1/ping":      "pong",
		"/extra":        "extra",
		"/healthz":      "ok",
		"/metrics":      "compose_hits_total 1",
		"/debug/flight": `"records"`,
		"/":             "/v1/",
	} {
		body := fetch(t, srv.URL+path)
		if !strings.Contains(body, want) {
			t.Errorf("GET %s = %q, want substring %q", path, body, want)
		}
	}
	// The index also advertises the flight mount.
	if body := fetch(t, srv.URL+"/"); !strings.Contains(body, "/debug/flight") {
		t.Errorf("index missing /debug/flight: %q", body)
	}
}

// TestWithHandlerNil: a nil handler leaves the pattern unmounted instead
// of panicking inside ServeMux.
func TestWithHandlerNil(t *testing.T) {
	m := obs.NewMetrics()
	h := Handler(m, WithHandler("/v1/", nil))
	rec := httptest.NewRecorder()
	r := httptest.NewRequest("GET", "/v1/anything", nil)
	h.ServeHTTP(rec, r)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil mount served status %d", rec.Code)
	}
}

// TestShutdownDrainsInFlight: a request blocked inside a mounted handler
// when Shutdown begins must complete with its full response, and
// Shutdown must not return before it does.
func TestShutdownDrainsInFlight(t *testing.T) {
	m := obs.NewMetrics()
	entered := make(chan struct{})
	release := make(chan struct{})
	slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-release
		fmt.Fprint(w, "drained")
	})
	srv, err := Start("127.0.0.1:0", m, WithHandler("/v1/slow", slow))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}

	var (
		wg      sync.WaitGroup
		body    string
		reqErr  error
		downErr error
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		resp, err := http.Get(srv.URL + "/v1/slow")
		if err != nil {
			reqErr = err
			return
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			reqErr = err
			return
		}
		body = string(b)
	}()

	<-entered
	shutdownDone := make(chan struct{})
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		downErr = srv.Shutdown(ctx)
		close(shutdownDone)
	}()

	// Shutdown must wait for the in-flight request: give it a moment to
	// (incorrectly) return early, then release the handler.
	select {
	case <-shutdownDone:
		t.Fatal("Shutdown returned while a request was in flight")
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	<-shutdownDone
	wg.Wait()

	if downErr != nil {
		t.Fatalf("Shutdown: %v", downErr)
	}
	if reqErr != nil {
		t.Fatalf("in-flight request failed: %v", reqErr)
	}
	if body != "drained" {
		t.Fatalf("in-flight response = %q, want %q", body, "drained")
	}

	// The listener is gone: new connections are refused.
	if _, err := http.Get(srv.URL + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
}

// fetch reads a URL body or fails the test.
func fetch(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return string(b)
}
