// Command sessionbench is the repository's benchmark: one profiling session
// per workload through the analyse, run and serve pipelines, every output
// checked against a computation made apart from the program.
//
// A session analyses a generated program and saves the certified .dpa,
// runs it under instrumentation into a profile, decodes the profile
// offline, absorbs the program's dynamic classes with Analysis.Extend,
// pushes the profile to an in-process dprofiled from two closed-loop agents
// while reading it back, and restarts the service over its data directory.
//
//	go run ./sessionbench --workload hot-loop --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics — the end-to-end set with --trace 0, the
// per-layer set with --trace 1. The traced run also prints the layer
// ledger, hottest layer first, to standard error and writes its spans to
// .bench_build/sessionbench/. See README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: big-graph, hot-loop or fleet-ingest")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are derived from")
	seconds := flag.Int("seconds", 20, "how long the repeated stages may measure, in seconds")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics from a traced run")
	flag.Parse()
	w, ok := workloadByName(*name)
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: sessionbench --workload big-graph|hot-loop|fleet-ingest --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	res, err := runSession(w, *seed, time.Duration(*seconds)*time.Second, *trace == 1, ".bench_build", os.Stderr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sessionbench: %v\n", err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "sessionbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// runSession runs one whole profiling session and returns its result; the
// run's scratch directory lives under buildDir and is removed at the end.
func runSession(w spec, seed uint64, seconds time.Duration, traced bool, buildDir string, log io.Writer) (*result, error) {
	root := filepath.Join(buildDir, "sessionbench", fmt.Sprintf("%s-%d-%d", w.Name, seed, os.Getpid()))
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(root)
	s := newSession(w, seed, seconds, traced, root, log)
	s.heap = startHeapSampler(5 * time.Millisecond)
	err := s.pipeline()
	peak := s.heap.finish()
	if err != nil {
		return nil, err
	}
	s.logf("%s: %s", w.Name, s.heap.byStage())
	for _, p := range s.problems {
		fmt.Fprintf(log, "sessionbench: %s\n", p)
	}
	res := &result{Correct: s.correct, Attempted: s.attempted, Failed: s.failed, Metrics: map[string]metric{}}
	if !traced {
		s.put("peak_heap_mb", float64(peak)/(1<<20), "MB")
		for _, n := range endToEnd {
			m, ok := s.metrics[n]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", n)
			}
			res.Metrics[n] = m
		}
		return res, nil
	}
	spans := s.tr.snapshot()
	fmt.Fprintf(log, "sessionbench: %s layer ledger (self time over every traced pass, hottest first)\n", w.Name)
	renderLedger(log, layerLedger(spans))
	spanFile := filepath.Join(buildDir, "sessionbench", "spans", fmt.Sprintf("%s-seed%d.jsonl", w.Name, seed))
	if err := writeSpans(spanFile, spans); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "sessionbench: %d spans written to %s\n", len(spans), spanFile)
	for _, n := range perLayer {
		m, ok := s.metrics[n]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", n)
		}
		res.Metrics[n] = m
	}
	return res, nil
}

// perLayer names the metrics the traced run reports, layer by layer.
var perLayer = []string{
	"cha.build_ms", "cha.extend_ms", "cha.nodes", "cha.edges",
	"core.encode_ms", "core.anchors", "core.restarts", "core.extend_ms", "core.extend_dirty_nodes", "core.extend_total_nodes",
	"cpt.compute_ms",
	"instrument.plan_ms", "instrument.sites",
	"encoding.compile_ms", "encoding.decode_ns_per_ctx",
	"verify.check_ms", "verify.extend_ms", "verify.obligations_checked", "verify.obligations_total",
	"analysisio.save_ms", "analysisio.load_ms",
	"minivm.steps", "minivm.native_steps_per_s",
	"deltapath.session_setup_ms", "deltapath.session_run_ms", "deltapath.hazards",
	"profile.add_ms", "profile.unique", "profile.total", "profile.save_ms", "profile.dpp_kb", "profile.decode_ms",
	"server.ingest_batches_per_s", "server.ingest_ack_p50_ms", "server.ingest_ack_p99_ms", "server.shed_retries", "server.duplicate_batches", "server.group_fsyncs",
	"server.batches_per_fsync", "server.commit_wait_ms",
	"server.segments_live", "server.compactions", "server.compact_ms", "server.compacted_pairs", "server.store_kb",
	"server.query_p90_ms", "server.top_p90_ms", "server.query_rows",
	"server.recovery_wal_records", "server.recovery_segments",
	"runtime.gc_cycles", "runtime.alloc_mb.analyse", "runtime.alloc_mb.run", "runtime.alloc_mb.serve",
	"trace.coverage.analyse", "trace.coverage.extend", "trace.coverage.run", "trace.coverage.serve",
	"trace.overhead_ms.analyse", "trace.overhead_ms.extend", "trace.overhead_ms.run", "trace.overhead_ms.serve",
}

// endToEnd names the metrics the untraced run reports.
var endToEnd = []string{
	"setup_s", "analyse_ms", "extend_ms", "dpa_kb", "run_ctx_per_s", "decode_ctx_per_s",
	"ingest_cpu_us_per_batch", "query_p50_ms", "top_p50_ms", "recovery_ms", "peak_heap_mb",
}

// pipeline runs the session's stages in order; the traced run follows each
// untraced stage with its traced replica.
func (s *session) pipeline() error {
	gc0 := readMem()
	s.heap.enter("setup")
	if err := s.setup(); err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	s.heap.enter("analyse")
	m0 := readMem()
	if err := s.analyse(); err != nil {
		return err
	}
	s.put("runtime.alloc_mb.analyse", float64(readMem().since(m0).allocBytes)/(1<<20), "MB")
	s.heap.enter("truth")
	if err := s.groundTruth(); err != nil {
		return fmt.Errorf("ground truth: %w", err)
	}
	s.heap.enter("run")
	m0 = readMem()
	if err := s.run(); err != nil {
		return err
	}
	s.put("runtime.alloc_mb.run", float64(readMem().since(m0).allocBytes)/(1<<20), "MB")
	if s.tr != nil {
		if err := s.traceRun(s.an); err != nil {
			return err
		}
	}
	s.heap.enter("decode")
	if err := s.decode(); err != nil {
		return err
	}
	if s.tr != nil {
		if err := s.traceDecode(s.an); err != nil {
			return err
		}
	}
	// The profile refers to its analysis, which the stages past extend
	// drop; the .dpp bytes are all that the service needs of it.
	s.prof = nil
	s.heap.enter("extend")
	if err := s.extend(); err != nil {
		return err
	}
	// No stage past this point needs the live analysis: the service works
	// from the saved .dpa. Dropping it keeps the heap to what runs next.
	s.an = nil
	if s.tr != nil {
		if err := s.traceAnalyse(); err != nil {
			return err
		}
	}
	s.heap.enter("serve")
	pushes, err := s.buildPushes()
	if err != nil {
		return fmt.Errorf("ingest bodies: %w", err)
	}
	// The traced run's serve pass interleaves untraced repetitions with
	// the traced ones, so it replaces the untraced pass.
	m0 = readMem()
	var sv *serveResult
	if s.tr == nil {
		sv, err = s.serve(pushes, s.dataDir, nil)
	} else {
		sv, err = s.serveTraced(pushes)
	}
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	s.put("runtime.alloc_mb.serve", float64(readMem().since(m0).allocBytes)/(1<<20), "MB")
	s.putServe(sv)
	s.putServeLayers(sv)
	s.logReps("query ms", sv.queryMs)
	s.logReps("query cpu ms", sv.queryCPUMs)
	s.logReps("top ms", sv.topMs)
	s.logReps("top cpu ms", sv.topCPUMs)
	s.logReps("recovery ms", sv.recoveryMs)
	s.logReps("recovery cpu ms", sv.recoveryCPUMs)
	s.logReps("ack ms", sv.ackMs)
	s.put("runtime.gc_cycles", float64(readMem().since(gc0).gcCycles), "count")
	nb := 0
	for _, p := range pushes {
		nb += len(p)
	}
	s.logf("%s: %d profiles in %d batches, %d acked sends, %d read pairs during ingest; metrics: %s",
		s.w.Name, len(pushes), nb, sv.acked, sv.readsMidRun, s.summary())
	return nil
}

// serveTraced runs the serve stage with every other repetition traced, a
// span around each request, and compares one unit of the traced
// repetitions (see unitMs) with one of the untraced ones.
func (s *session) serveTraced(pushes [][]batch) (*serveResult, error) {
	n := len(s.tr.snapshot())
	sv, err := s.serve(pushes, s.dataDir, s.tr)
	if err != nil {
		return nil, err
	}
	// One unit of the traced repetitions, as unitMs takes it from the
	// untraced ones: the median of each kind of span, and how much of it
	// its children cover where it has any.
	spans := s.tr.snapshot()
	children := childIndex(spans)
	dur := map[string][]float64{}
	var roundCovered []float64
	for i := n; i < len(spans); i++ {
		switch spans[i].Name {
		case "serve.ingest":
			roundCovered = append(roundCovered, float64(covered(spans, children, i))/1e6)
			fallthrough
		case "server.query", "server.top", "server.recovery":
			dur[spans[i].Name] = append(dur[spans[i].Name], float64(spans[i].dur())/1e6)
		}
	}
	// As for the other pipelines, the coverage is the share of the traced
	// unit its spans cover, scaled by the traced unit's CPU time over the
	// untraced one's; here each unit is a sum of medians, and the untraced
	// one comes from repetitions interleaved with the traced ones.
	reqs := median(dur["server.query"]) + median(dur["server.top"]) + median(dur["server.recovery"])
	root, cov := median(dur["serve.ingest"])+reqs, median(roundCovered)+reqs
	s.coverage("serve", &tracedStage{
		baseMs:     []float64{sv.unitMs()},
		baseCPU:    []float64{sv.unitCPUMs()},
		rootMs:     []float64{root},
		rootCPU:    []float64{sv.tracedUnitCPUMs()},
		coveredMs:  []float64{cov},
		rootShares: []float64{cov / root},
	})
	return sv, nil
}

func (s *session) putServe(sv *serveResult) {
	s.put("ingest_cpu_us_per_batch", sv.cpuUsPerBatch, "us")
	s.put("query_p50_ms", median(sv.queryCPUMs), "ms")
	s.put("top_p50_ms", median(sv.topCPUMs), "ms")
	s.put("recovery_ms", median(sv.recoveryCPUMs), "ms")
}

func (s *session) putServeLayers(sv *serveResult) {
	h, pm := sv.health, sv.promMetrics
	s.put("server.ingest_batches_per_s", sv.ratePerS, "1/s")
	s.put("server.ingest_ack_p50_ms", median(sv.ackMs), "ms")
	s.put("server.ingest_ack_p99_ms", quantile(sv.ackMs, 0.99), "ms")
	s.put("server.shed_retries", float64(sv.shedRetries), "count")
	s.put("server.duplicate_batches", float64(h.DupBatches), "count")
	s.put("server.group_fsyncs", float64(h.GroupFsyncs), "count")
	s.put("server.batches_per_fsync", float64(h.Batches)/max(float64(h.GroupFsyncs), 1), "ratio")
	s.put("server.commit_wait_ms", pm["dp_server_commit_wait_ns_sum"]/max(pm["dp_server_commit_wait_ns_count"], 1)/1e6, "ms")
	s.put("server.segments_live", float64(h.Segments), "count")
	s.put("server.compactions", float64(h.Compactions), "count")
	s.put("server.compact_ms", pm["dp_server_compaction_ns_total"]/1e6, "ms")
	s.put("server.compacted_pairs", pm["dp_server_compaction_merged_pairs_total"], "count")
	s.put("server.store_kb", float64(sv.storeBytes)/1024, "KB")
	s.put("server.query_p90_ms", quantile(sv.queryMs, 0.9), "ms")
	s.put("server.top_p90_ms", quantile(sv.topMs, 0.9), "ms")
	s.put("server.query_rows", float64(sv.queryRows), "count")
	s.put("server.recovery_wal_records", float64(sv.recovered.Replayed), "count")
	s.put("server.recovery_segments", float64(sv.recovered.Segments), "count")
}

func (s *session) summary() string {
	var b strings.Builder
	for _, n := range endToEnd {
		if m, ok := s.metrics[n]; ok {
			fmt.Fprintf(&b, " %s=%.4g", n, m.Value)
		}
	}
	fmt.Fprintf(&b, " (GOMAXPROCS=%d, NumCPU=%d)", runtime.GOMAXPROCS(0), runtime.NumCPU())
	return b.String()
}
