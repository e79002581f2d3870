package core

import (
	"bufio"
	"crypto/sha256"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"espresso/internal/cost"
	"espresso/internal/gen"
	"espresso/internal/obs/wtrace"
	"espresso/internal/strategy"
)

var update = flag.Bool("update", false, "rewrite the generated-corpus selection golden")

// genCorpusGolden pins the sequential selection for generated cases:
// one line per seed with the strategy's SHA-256 and F(S) in ns.
const genCorpusGolden = "testdata/gen_selections.golden"

// genCorpusSeeds is the pinned seed range (gen.Config{} defaults).
const genCorpusSeeds = 400

// Selections on the generated corpus must not move: the zoo golden pins
// six large models, this pins hundreds of small, varied ones, where
// pruning and skip rules meet many more edge cases (one tensor, one
// machine, latency-free links, every compressor). Each seed selects at
// Parallelism 1. Run with -update to rewrite the golden after an
// intended change.
func TestGenCorpusSelectionsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("400 generated selections in -short mode")
	}
	got := make([]string, 0, genCorpusSeeds)
	for seed := uint64(1); seed <= genCorpusSeeds; seed++ {
		cs := gen.Generate(seed, gen.Config{})
		cm, err := cost.NewModels(cs.Cluster, cs.Spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sel := NewSelector(cs.Model, cs.Cluster, cm)
		sel.Parallelism = 1
		s, rep, err := sel.Select()
		if err != nil {
			t.Fatalf("%v: %v", cs, err)
		}
		buf, err := strategy.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, fmt.Sprintf("%d %x %d", seed, sha256.Sum256(buf), int64(rep.Iter)))
	}
	if *update {
		if err := os.WriteFile(genCorpusGolden, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	f, err := os.Open(genCorpusGolden)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var want []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		want = append(want, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) {
		t.Fatalf("golden has %d lines, corpus has %d seeds", len(want), len(got))
	}
	bad := 0
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("selection moved:\n got  %s\n want %s", got[i], want[i])
			if bad++; bad == 10 {
				t.Fatal("too many mismatches")
			}
		}
	}
}

// Within one sweepFrom call a tensor is probed again only after some
// accepted improvement: otherwise every other tensor still holds the
// option it held at the last probe, and the re-probe cannot win. The
// check reads the traced Select's probe spans. The request clock ticks
// once per reading and notes the incumbent F(S) bubble analysis last
// saw; the sweep re-runs bubble analysis after every accepted
// improvement and F(S) strictly falls, so two clock readings noting
// the same incumbent have no improvement between them.
func TestSweepSkipsUnchangedPositions(t *testing.T) {
	reprobes := 0
	for seed := uint64(1); seed <= 20; seed++ {
		cs := gen.Generate(seed, gen.Config{})
		cm, err := cost.NewModels(cs.Cluster, cs.Spec)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sel := NewSelector(cs.Model, cs.Cluster, cm)
		req := wtrace.New().Start("select")
		var incumbent []time.Duration
		req.SetClock(func() time.Duration {
			incumbent = append(incumbent, sel.bubbleRes.Iter)
			return time.Duration(len(incumbent) - 1)
		})
		sel.Trace = req
		if _, _, err := sel.Select(); err != nil {
			t.Fatalf("%v: %v", cs, err)
		}
		spans := req.Spans()
		req.Release()

		// Keyed by (sweepFrom call, tensor): the incumbent right after the
		// tensor's last probe was decided. A probe span's parent is a
		// pass, whose parent ("sweep" or "alt") identifies the call; the
		// clock reading after the span's end follows the decision.
		after := make(map[[2]int]time.Duration)
		for _, sp := range spans {
			if sp.Name != "probe" {
				continue
			}
			idx, _ := sp.TensorIndex()
			key := [2]int{spans[sp.Parent].Parent, idx}
			if prev, ok := after[key]; ok {
				reprobes++
				if incumbent[sp.Start] == prev {
					t.Errorf("%v: tensor %d probed again at F(S)=%v with no improvement since its last probe",
						cs, idx, prev)
				}
			}
			after[key] = incumbent[sp.End+1]
		}
	}
	if reprobes == 0 {
		t.Fatal("no tensor was probed twice in one sweep; the check is vacuous")
	}
}
