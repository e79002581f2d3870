package espresso

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
	"time"
)

// chromeEvent is the subset of the trace-event schema the tests verify.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Cat  string         `json:"cat"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Args map[string]any `json:"args"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// The acceptance walk: the shipped BERT job config, traced through the
// public API, yields a valid Chrome trace with at least one complete
// event per phase per rank, and span times consistent with the report.
func TestSelectTracedOnBERTConfig(t *testing.T) {
	data, err := os.ReadFile("configs/bert_nvlink.json")
	if err != nil {
		t.Fatal(err)
	}
	var job Job
	if err := json.Unmarshal(data, &job); err != nil {
		t.Fatal(err)
	}
	// espresso sim's data-plane scale: at 2 GPUs per machine the BERT
	// selection offloads compression to CPUs, so the offload and decode
	// phases appear in the trace alongside the rest.
	job.Cluster.GPUsPerMachine = 2

	tel := NewTelemetry()
	s, rep, err := SelectTraced(job, tel)
	if err != nil {
		t.Fatal(err)
	}
	if tel.SpanCount() == 0 {
		t.Fatal("no spans collected")
	}

	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}

	perRankPhase := map[int]map[string]int{}
	var maxEndUs float64
	for _, ev := range tr.TraceEvents {
		switch ev.Ph {
		case "X":
			if ev.Dur < 0 || ev.Ts < 0 {
				t.Fatalf("negative time in event %+v", ev)
			}
			if perRankPhase[ev.Pid] == nil {
				perRankPhase[ev.Pid] = map[string]int{}
			}
			perRankPhase[ev.Pid][ev.Cat]++
			if end := ev.Ts + ev.Dur; end > maxEndUs {
				maxEndUs = end
			}
		case "M":
		default:
			t.Fatalf("unexpected event phase %q", ev.Ph)
		}
	}

	if len(perRankPhase) != job.Cluster.Machines {
		t.Fatalf("trace covers %d ranks, want %d", len(perRankPhase), job.Cluster.Machines)
	}
	// The BERT selection compresses on CPUs, so every telemetry phase of
	// the timeline appears on every rank.
	phases := []string{"compute", "encode", "decode",
		"intra-collective", "inter-collective"}
	if rep.OffloadedTensors > 0 {
		phases = append(phases, "offload")
	}
	for rank, got := range perRankPhase {
		for _, p := range phases {
			if got[p] == 0 {
				t.Errorf("rank %d has no %q span", rank, p)
			}
		}
	}

	// Virtual time sanity: the last span ends at the backward-pass
	// makespan, which is bounded by the reported iteration time.
	iterUs := float64(rep.IterTime) / float64(time.Microsecond)
	if maxEndUs <= 0 || maxEndUs > iterUs {
		t.Errorf("last span ends at %.1fus, iteration time is %.1fus", maxEndUs, iterUs)
	}

	// The search published its effort alongside the spans.
	var mbuf bytes.Buffer
	if err := tel.WriteMetrics(&mbuf); err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters   map[string]int64   `json:"counters"`
		Gauges     map[string]float64 `json:"gauges"`
		Histograms map[string]struct {
			Count int64   `json:"count"`
			Sum   float64 `json:"sum"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(mbuf.Bytes(), &metrics); err != nil {
		t.Fatalf("metrics output is not valid JSON: %v", err)
	}
	if got := metrics.Counters["search.evals"]; got != int64(rep.Evaluations) {
		t.Errorf("search.evals = %d, report says %d", got, rep.Evaluations)
	}
	if got := metrics.Gauges["search.compressed"]; got != float64(rep.CompressedTensors) {
		t.Errorf("search.compressed = %v, report says %d", got, rep.CompressedTensors)
	}
	// The traced call timed its own wall clock: one observation, at
	// least as long as the search the report measured.
	if h := metrics.Histograms["api.select.wall_seconds"]; h.Count != 1 || h.Sum < rep.SelectionTime.Seconds() {
		t.Errorf("api.select.wall_seconds = %d obs / %.3fs, want 1 obs >= selection time %v",
			h.Count, h.Sum, rep.SelectionTime)
	}

	// PredictTraced replays the same strategy into a fresh collector.
	tel2 := NewTelemetry()
	rep2, err := PredictTraced(job, s, tel2)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.IterTime != rep.IterTime {
		t.Errorf("replay predicts %v, selection predicted %v", rep2.IterTime, rep.IterTime)
	}
	if tel2.SpanCount() != tel.SpanCount() {
		t.Errorf("replay collected %d spans, selection %d", tel2.SpanCount(), tel.SpanCount())
	}
}

func TestTelemetryNilAndReset(t *testing.T) {
	job := bertJob()
	// A nil collector degrades to the untraced paths.
	s, _, err := SelectTraced(job, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := PredictTraced(job, s, nil); err != nil {
		t.Fatal(err)
	}

	tel := NewTelemetry()
	if _, err := PredictTraced(job, s, tel); err != nil {
		t.Fatal(err)
	}
	if tel.SpanCount() == 0 {
		t.Fatal("no spans collected")
	}
	tel.Reset()
	if tel.SpanCount() != 0 {
		t.Errorf("%d spans survive Reset", tel.SpanCount())
	}
	var buf bytes.Buffer
	if err := tel.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var tr chromeTrace
	if err := json.Unmarshal(buf.Bytes(), &tr); err != nil {
		t.Fatal(err)
	}
	for _, ev := range tr.TraceEvents {
		if ev.Ph == "X" {
			t.Fatalf("span event after Reset: %+v", ev)
		}
	}
}
