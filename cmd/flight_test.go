package cmd_test

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"espresso/internal/obs/flight"
)

// TestLoadFlightRecorder drives the flight recorder's HTTP surface and
// exit dump through a traced load run: the live /debug/flight listing
// must be non-empty, one record must carry its span tree and phase
// breakdown both as JSON and as a Chrome trace, and the dump written at
// exit must hold records, with every anomaly classified.
func TestLoadFlightRecorder(t *testing.T) {
	dir := t.TempDir()
	dump := filepath.Join(dir, "flight.json")
	cmd := exec.Command(espressoBin(t), "load", "-workers", "2", "-duration", "3s", "-cases", "8",
		"-trace", "-listen", "127.0.0.1:0", "-flight-out", dump, "-out", filepath.Join(dir, "BENCH_load.json"))
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()

	// The endpoint's address is logged once it is up.
	urlRE := regexp.MustCompile(`msg="observability endpoint up" url=(\S+)`)
	logs := bufio.NewScanner(stderr)
	var base string
	for base == "" && logs.Scan() {
		if m := urlRE.FindStringSubmatch(logs.Text()); m != nil {
			base = m[1]
		}
	}
	if base == "" {
		t.Fatal("load exited without logging its endpoint")
	}
	drained := make(chan struct{}) // the log pipe is read to EOF before Wait
	go func() {
		io.Copy(io.Discard, stderr)
		close(drained)
	}()

	var live flight.Dump
	for deadline := time.Now().Add(10 * time.Second); live.Total == 0; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("no flight records mid-run")
		}
		getJSON(t, base+"/debug/flight", &live)
	}
	if len(live.Records) == 0 {
		t.Fatal("empty live record listing")
	}

	// Records rotate through the ring under load, so a listed record
	// can be evicted before it is fetched; list and fetch again on 404.
	var (
		rec    flight.Record
		chrome struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		fetched bool
	)
	for attempt := 0; attempt < 10 && !fetched; attempt++ {
		getJSON(t, base+"/debug/flight", &live)
		id := live.Records[0].ID
		rec, chrome.TraceEvents = flight.Record{}, nil
		fetched = getJSON(t, base+"/debug/flight/"+id, &rec) &&
			getJSON(t, base+"/debug/flight/"+id+"?format=chrome", &chrome)
	}
	if !fetched {
		t.Fatal("record fetch lost the eviction race 10 times")
	}
	if len(rec.Spans) == 0 || len(rec.Phases) == 0 {
		t.Fatalf("record %s: %d spans, %d phases; want both non-empty", rec.ID, len(rec.Spans), len(rec.Phases))
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatalf("record %s: empty Chrome trace", rec.ID)
	}

	<-drained
	if err := cmd.Wait(); err != nil {
		t.Fatalf("espresso load: %v", err)
	}
	data, err := os.ReadFile(dump)
	if err != nil {
		t.Fatal(err)
	}
	var exit flight.Dump
	if err := json.Unmarshal(data, &exit); err != nil {
		t.Fatalf("exit dump: %v", err)
	}
	if exit.Total == 0 || len(exit.Records) == 0 {
		t.Fatalf("exit dump: total %d, %d records; want both non-zero", exit.Total, len(exit.Records))
	}
	for _, a := range exit.Anomalies {
		if !a.Anomaly || a.AnomalyReason == "" {
			t.Errorf("anomaly record %s lacks its classification: %+v", a.ID, a)
		}
	}
}

// getJSON decodes the JSON body at url into v. It reports false on a
// 404 and fails the test on any other error.
func getJSON(t *testing.T, url string, v any) bool {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusNotFound {
		return false
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	return true
}
