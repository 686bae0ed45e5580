package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"
)

// TestSmoke runs a short session of every workload, listed or not, to its end: every stage
// runs, every correctness check passes and every end-to-end metric is
// measured and above zero. With -short, which the race-detector run uses,
// only fleet-ingest runs: it is the one workload whose store flushes and
// compacts, and the whole set takes minutes under -race.
func TestSmoke(t *testing.T) {
	for _, w := range append(append([]spec(nil), workloads...), unlisted...) {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			if testing.Short() && w.Name != "fleet-ingest" {
				t.Skip("-short runs fleet-ingest only")
			}
			// One repetition of each stage: the repetitions short() adds
			// serve the traced run's coverage check, not the outputs.
			sw := w.short()
			sw.MinReps, sw.MaxReps, sw.IngestRounds = 1, 1, 1
			var log strings.Builder
			res, err := runSession(sw, 1, time.Second, false, t.TempDir(), &log)
			if err != nil {
				t.Fatalf("session failed: %v\n%s", err, log.String())
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, log.String())
			}
			for _, name := range endToEnd {
				if m, ok := res.Metrics[name]; !ok || !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %+v, want a value above 0", name, m)
				}
			}
		})
	}
}

// TestSmokeTraced runs a short traced session and checks that it reports
// every per-layer metric and nothing else, with every pipeline's span
// coverage above zero (the session itself checks it against its
// tolerance). -short skips it.
func TestSmokeTraced(t *testing.T) {
	if testing.Short() {
		t.Skip("the traced session is left to the full test run")
	}
	w, _ := workloadByName("fleet-ingest")
	var log strings.Builder
	res, err := runSession(w.short(), 2, time.Second, true, t.TempDir(), &log)
	if err != nil {
		t.Fatalf("traced session failed: %v\n%s", err, log.String())
	}
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, log.String())
	}
	var got []string
	for name := range res.Metrics {
		got = append(got, name)
	}
	sort.Strings(got)
	want := append([]string(nil), perLayer...)
	sort.Strings(want)
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("traced run reports\n  %v\nwant\n  %v", got, want)
	}
	for name, m := range res.Metrics {
		if strings.HasPrefix(name, "trace.coverage.") && !(m.Value > 0) {
			t.Errorf("%s = %v, want a share above 0", name, m.Value)
		}
	}
	if !strings.Contains(log.String(), "layer ledger") {
		t.Errorf("traced run printed no ledger:\n%s", log.String())
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric and workload lists in step
// with the ones the benchmark reports.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	names := func(xs []struct{ Name string }) string {
		var out []string
		for _, x := range xs {
			out = append(out, x.Name)
		}
		return strings.Join(out, " ")
	}
	var wl []string
	for _, w := range workloads {
		wl = append(wl, w.Name)
	}
	if got, want := names(b.Workloads), strings.Join(wl, " "); got != want {
		t.Errorf("BENCHMARK.json workloads %q, benchmark %q", got, want)
	}
	if got, want := names(b.EndToEnd), strings.Join(endToEnd, " "); got != want {
		t.Errorf("BENCHMARK.json end_to_end %q, benchmark %q", got, want)
	}
	if got, want := names(b.PerLayer), strings.Join(perLayer, " "); got != want {
		t.Errorf("BENCHMARK.json per_layer %q, benchmark %q", got, want)
	}
}
