package load_test

import (
	"net/http/httptest"
	"testing"
	"time"

	"espresso/internal/gen"
	"espresso/internal/load"
	"espresso/internal/serve"
	"espresso/internal/store"
)

// TestRunAgainstTarget drives a live espresso serve instance through
// the harness's -target mode: selections go over HTTP via the typed
// client, and every completed request left a persisted report behind.
func TestRunAgainstTarget(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{NoSync: true})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	srv, err := serve.New(serve.Config{Store: st, Token: "tok"})
	if err != nil {
		t.Fatalf("serve.New: %v", err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	res, err := load.Run(load.Config{
		Workers:     2,
		Duration:    300 * time.Millisecond,
		Cases:       4,
		Gen:         gen.Config{MaxTensors: 3, MaxElems: 1 << 13, MaxMachines: 2},
		Target:      ts.URL,
		TargetToken: "tok",
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Selections == 0 {
		t.Fatal("no selections completed against the target")
	}
	if res.Errors != 0 {
		t.Fatalf("%d of %d selections failed", res.Errors, res.Selections+res.Errors)
	}
	if res.Target != ts.URL {
		t.Errorf("result target = %q, want %q", res.Target, ts.URL)
	}
	if res.Evals == 0 {
		t.Error("evals fingerprint is zero; the server's reports did not round-trip")
	}
	// Each selection persisted a report.
	if got := int64(len(st.Reports())); got != res.Selections {
		t.Errorf("store has %d reports, want %d", got, res.Selections)
	}

	// A wrong token fails every request, and Run surfaces it.
	_, err = load.Run(load.Config{
		Workers:  1,
		Duration: 50 * time.Millisecond,
		Cases:    1,
		Gen:      gen.Config{MaxTensors: 3, MaxElems: 1 << 13, MaxMachines: 2},
		Target:   ts.URL,
	})
	if err == nil {
		t.Fatal("Run with missing token succeeded, want auth failure")
	}
}
