package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deltapath"
	"deltapath/internal/obs"
	"deltapath/internal/profile"
	"deltapath/internal/server"
)

const tenantName = "bench"

// batch is one prebuilt /ingest body: a .dpp stream of at most
// BatchRecords record/count pairs of one seed's profile.
type batch struct {
	id     string
	body   []byte
	recs   []int32 // record numbers (into truth.recs)
	counts []uint64
	resend bool
}

// buildPushes builds what the agents push: one profile per seed, as one
// dprun -seed N -push run aggregates it, cut the way agentclient.PushRecords
// cuts a .dpp — records in key order, BatchRecords to a batch. The first
// batch of every profile is sent again right after its ack, under the same
// X-Batch-ID, as agentclient resends a batch whose ack was lost; one resend
// per push is the least that takes every push through the service's
// duplicate path, not a measured rate of lost acks.
func (s *session) buildPushes() ([][]batch, error) {
	pr, err := profile.NewReader(bytes.NewReader(s.dpp))
	if err != nil {
		return nil, err
	}
	digest := pr.Digest()
	var out [][]batch
	for p, stream := range s.truth.stream {
		agg := map[int32]uint64{}
		for _, r := range stream {
			agg[r]++
		}
		recs := make([]int32, 0, len(agg))
		for r := range agg {
			recs = append(recs, r)
		}
		sort.Slice(recs, func(i, j int) bool {
			return bytes.Compare(s.truth.recs[recs[i]], s.truth.recs[recs[j]]) < 0
		})
		var push []batch
		for lo := 0; lo < len(recs); lo += s.w.BatchRecords {
			b := batch{
				id:     fmt.Sprintf("s%d-p%d-b%d", s.seed, p, len(push)),
				recs:   recs[lo:min(lo+s.w.BatchRecords, len(recs))],
				resend: lo == 0,
			}
			var body bytes.Buffer
			pw, err := profile.NewWriter(&body, digest)
			if err != nil {
				return nil, err
			}
			for _, r := range b.recs {
				b.counts = append(b.counts, agg[r])
				if err := pw.Add(s.truth.recs[r], agg[r]); err != nil {
					return nil, err
				}
			}
			if err := pw.Flush(); err != nil {
				return nil, err
			}
			b.body = body.Bytes()
			push = append(push, b)
		}
		out = append(out, push)
	}
	return out, nil
}

// readsAfter reports whether the agent that has just pushed profile i of n
// issues a read pair: after the profiles (2k+1)/(2·pairs) of the way
// through the list, so the reads fall on a schedule fixed by the profile
// list, not by timing.
func readsAfter(i, n, pairs int) bool {
	for k := 0; k < pairs; k++ {
		if i+1 == max(1, (2*k+1)*n/(2*pairs)) {
			return true
		}
	}
	return false
}

// ledger is the benchmark's own account of what the service must hold: the
// counts of every acked, non-duplicate batch.
type ledger struct {
	mu      sync.Mutex
	counts  []uint64 // per truth record
	batches int
}

func (l *ledger) add(b *batch) {
	l.mu.Lock()
	for i, r := range b.recs {
		l.counts[r] += b.counts[i]
	}
	l.batches++
	l.mu.Unlock()
}

// byContext aggregates the ledger by decoded context, as /query and /top
// report it.
func (l *ledger) byContext(names []string) map[string]uint64 {
	out := map[string]uint64{}
	for i, n := range l.counts {
		if n > 0 {
			out[names[i]] += n
		}
	}
	return out
}

// serveResult is what one serve pass measured.
type serveResult struct {
	// Every list holds the untraced repetitions only. ackMs pools their
	// ack latencies, ratePerS and cpuUsPerBatch are medians over their
	// rounds, and acked sums every round's acks.
	ackMs                   []float64
	acked                   int
	ratePerS, cpuUsPerBatch float64
	shedRetries             int
	readsMidRun             int

	queryMs, queryCPUMs       []float64
	topMs, topCPUMs           []float64
	roundMs, roundCPUMs       []float64 // wall and CPU time of each ingest round
	recoveryMs, recoveryCPUMs []float64
	// tracedCPUMs holds, per step (round, query, top, recovery), the CPU
	// time of the traced repetitions.
	tracedCPUMs map[string][]float64

	queryRows   int
	health      server.TenantHealth // the last round's settled store
	promMetrics map[string]float64
	storeBytes  int64
	recovered   server.TenantHealth
}

// unitMs is the wall time of one unit of the serve stage — one ingest
// round, one /query?top=K, one /top?n=K and one restart, each the median —
// on which the traced repetitions are compared with the untraced ones,
// whatever number of rounds and reads each side made.
func (r *serveResult) unitMs() float64 {
	return median(r.roundMs) + median(r.queryMs) + median(r.topMs) + median(r.recoveryMs)
}

// unitCPUMs is the CPU time of one unit of the untraced repetitions.
func (r *serveResult) unitCPUMs() float64 {
	return median(r.roundCPUMs) + median(r.queryCPUMs) + median(r.topCPUMs) + median(r.recoveryCPUMs)
}

// tracedUnitCPUMs is the CPU time of one unit of the traced repetitions.
func (r *serveResult) tracedUnitCPUMs() float64 {
	var sum float64
	for _, step := range []string{"round", "query", "top", "recovery"} {
		sum += median(r.tracedCPUMs[step])
	}
	return sum
}

// call sends one request through the server's handler.
func call(h http.Handler, method, target string, body []byte, header map[string]string) *httptest.ResponseRecorder {
	var r io.Reader
	if body != nil {
		r = bytes.NewReader(body)
	}
	req := httptest.NewRequest(method, target, r)
	for k, v := range header {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// push sends one batch until it is acked, retrying sheds (429) and
// draining refusals (503) as an agent does.
func push(h http.Handler, b *batch) (server.IngestResponse, int, error) {
	var resp server.IngestResponse
	for retries := 0; ; retries++ {
		rec := call(h, "POST", "/ingest", b.body, map[string]string{
			"X-Batch-ID":   b.id,
			"Content-Type": "application/octet-stream",
		})
		switch rec.Code {
		case http.StatusOK:
			err := json.Unmarshal(rec.Body.Bytes(), &resp)
			return resp, retries, err
		case http.StatusTooManyRequests, http.StatusServiceUnavailable:
			if retries > 10000 {
				return resp, retries, fmt.Errorf("batch %s: still refused after %d retries", b.id, retries)
			}
			time.Sleep(time.Millisecond)
		default:
			return resp, retries, fmt.Errorf("batch %s: status %d: %s", b.id, rec.Code, strings.TrimSpace(rec.Body.String()))
		}
	}
}

func queryTop(h http.Handler, k int) ([]server.QueryRow, error) {
	rec := call(h, "GET", "/query?tenant="+tenantName+"&top="+strconv.Itoa(k), nil, nil)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/query?top: status %d", rec.Code)
	}
	return parseRows(rec.Body)
}

func parseRows(r io.Reader) ([]server.QueryRow, error) {
	var rows []server.QueryRow
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for sc.Scan() {
		var row server.QueryRow
		if err := json.Unmarshal(sc.Bytes(), &row); err != nil {
			return nil, err
		}
		if row.Context == "" {
			return nil, fmt.Errorf("/query row without a context: %s", sc.Text())
		}
		rows = append(rows, row)
	}
	return rows, sc.Err()
}

func top(h http.Handler, k int) (server.TopResponse, error) {
	var resp server.TopResponse
	rec := call(h, "GET", "/top?tenant="+tenantName+"&n="+strconv.Itoa(k), nil, nil)
	if rec.Code != http.StatusOK {
		return resp, fmt.Errorf("/top: status %d", rec.Code)
	}
	err := json.Unmarshal(rec.Body.Bytes(), &resp)
	return resp, err
}

func healthz(h http.Handler) (server.TenantHealth, error) {
	rec := call(h, "GET", "/healthz", nil, nil)
	var resp server.HealthResponse
	if rec.Code != http.StatusOK {
		return server.TenantHealth{}, fmt.Errorf("/healthz: status %d", rec.Code)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		return server.TenantHealth{}, err
	}
	if len(resp.Tenants) != 1 {
		return server.TenantHealth{}, fmt.Errorf("/healthz: %d tenants, want 1", len(resp.Tenants))
	}
	return resp.Tenants[0], nil
}

// scrape reads the plain counters and histogram sums of /metrics.
func scrape(h http.Handler) (map[string]float64, error) {
	rec := call(h, "GET", "/metrics", nil, nil)
	if rec.Code != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", rec.Code)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, nil
}

// rowsEqual compares a service's top-K rows with the expected ones.
func rowsEqual(got []server.QueryRow, want []deltapath.HotContext) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i].Context != want[i].Context || got[i].Count != want[i].Count {
			return false
		}
	}
	return true
}

func topRows(resp server.TopResponse) []server.QueryRow {
	out := make([]server.QueryRow, len(resp.Rows))
	for i, r := range resp.Rows {
		out[i] = server.QueryRow{Context: r.Context, Count: r.Count}
	}
	return out
}

// checkStore compares the service's whole store (/query without top=) and
// both top-K reads with the ledger.
func (s *session) checkStore(h http.Handler, l *ledger, what string) int {
	want := l.byContext(s.truth.names)
	rec := call(h, "GET", "/query?tenant="+tenantName, nil, nil)
	rows, err := parseRows(rec.Body)
	if rec.Code != http.StatusOK || err != nil {
		s.fail(fmt.Errorf("%s: /query: status %d: %v", what, rec.Code, err))
		return 0
	}
	got := map[string]uint64{}
	for _, r := range rows {
		got[r.Context] += r.Count
	}
	bad := len(got) != len(want)
	for c, n := range want {
		bad = bad || got[c] != n
	}
	s.check(!bad, "%s: /query holds %d contexts, the ledger %d, or their counts differ", what, len(got), len(want))
	wantTop := topK(want, topN)
	if q, err := queryTop(h, topN); err != nil {
		s.fail(fmt.Errorf("%s: %w", what, err))
	} else {
		s.check(rowsEqual(q, wantTop), "%s: /query?top=%d differs from the ledger's top-K", what, topN)
	}
	if t, err := top(h, topN); err != nil {
		s.fail(fmt.Errorf("%s: %w", what, err))
	} else {
		s.check(rowsEqual(topRows(t), wantTop), "%s: /top?n=%d differs from the ledger's top-K", what, topN)
	}
	return len(rows)
}

// wellFormed checks a read taken while writes run: at most K rows, in
// report order, never more than the final ledger holds.
func wellFormed(rows []server.QueryRow, k int, final map[string]uint64) bool {
	if len(rows) > k {
		return false
	}
	for i, r := range rows {
		if r.Count == 0 || r.Count > final[r.Context] {
			return false
		}
		if i > 0 && (rows[i-1].Count < r.Count || (rows[i-1].Count == r.Count && rows[i-1].Context >= r.Context)) {
			return false
		}
	}
	return true
}

func (s *session) serverConfig(dir string) server.Config {
	return server.Config{
		DataDir:            dir,
		MemtableMaxBytes:   s.w.MemtableMaxBytes,
		WALMaxBytes:        s.w.WALMaxBytes,
		CompactMinSegments: compactMinSegments,
		Registry:           obs.NewRegistry(),
	}
}

func closeServer(srv *server.Server) error {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return srv.Close(ctx)
}

// ingestRound is one ingest phase: a fresh service, every batch pushed once
// (resends twice) by two closed-loop agents.
type ingestRound struct {
	srv    *server.Server
	h      http.Handler
	ledger *ledger
	wall   time.Duration
	cpu    time.Duration
	acked  int
	ackMs  []float64
}

// ingest starts a service over dir and pushes every profile into it from
// two closed-loop agents sharing the profile list; an agent pushes one
// profile's batches in order, each after the previous one's ack. The agent
// that finishes a profile readsAfter names then reads /query?top=K and
// /top?n=K.
func (s *session) ingest(pushes [][]batch, dir string, tr *tracer, root int, res *serveResult) (*ingestRound, error) {
	srv, err := server.New(s.serverConfig(dir))
	if err != nil {
		return nil, err
	}
	if _, err := srv.AddTenant(tenantName, bytes.NewReader(s.dpa)); err != nil {
		return nil, err
	}
	r := &ingestRound{srv: srv, h: srv.Handler(), ledger: &ledger{counts: make([]uint64, len(s.truth.recs))}}
	h, l := r.h, r.ledger
	final := s.truth.byContext()
	var next atomic.Int64
	type agentOut struct {
		lat             []float64
		acked, retries  int
		reads, badReads int
		errs            []error
		wrong           []string
	}
	outs := make([]agentOut, 2)
	settleGC()
	ingest := tr.child("serve.ingest", root)
	cpu0, t0 := cpuTime(), time.Now()
	var wg sync.WaitGroup
	for a := 0; a < 2; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			o := &outs[a]
			for {
				p := int(next.Add(1) - 1)
				if p >= len(pushes) {
					return
				}
				for i := range pushes[p] {
					b := &pushes[p][i]
					sends := 1
					if b.resend {
						sends = 2
					}
					for k := 0; k < sends; k++ {
						sp := tr.child("server.push", ingest)
						p0 := time.Now()
						resp, retries, err := push(h, b)
						o.lat = append(o.lat, ms(time.Since(p0)))
						tr.end(sp)
						o.retries += retries
						if err != nil {
							o.errs = append(o.errs, err)
							continue
						}
						o.acked++
						if resp.Duplicate != (k == 1) || (k == 0 && resp.Applied != len(b.recs)) {
							o.wrong = append(o.wrong, fmt.Sprintf("batch %s send %d: duplicate=%v applied=%d of %d",
								b.id, k, resp.Duplicate, resp.Applied, len(b.recs)))
						}
						if k == 0 && !resp.Duplicate {
							l.add(b)
						}
					}
				}
				if readsAfter(p, len(pushes), s.w.ReadPairs) {
					sp := tr.child("server.read", ingest)
					q, qerr := queryTop(h, topN)
					t, terr := top(h, topN)
					tr.end(sp)
					o.reads++
					if qerr != nil || terr != nil || !wellFormed(q, topN, final) || !wellFormed(topRows(t), topN, final) {
						o.badReads++
					}
				}
			}
		}(a)
	}
	wg.Wait()
	r.wall, r.cpu = time.Since(t0), cpuTime()-cpu0
	tr.end(ingest)
	for _, o := range outs {
		r.ackMs = append(r.ackMs, o.lat...)
		r.acked += o.acked
		res.shedRetries += o.retries
		for _, err := range o.errs {
			s.fail(err)
		}
		for i := 0; i < o.acked; i++ {
			s.ok()
		}
		for _, w := range o.wrong {
			s.check(false, "%s", w)
		}
		for i := 0; i < o.reads; i++ {
			s.check(i >= o.badReads, "a read pair taken during ingest was malformed")
		}
		res.readsMidRun += o.reads
	}

	// Settle: the queue is empty and no compaction is pending, that is the
	// live segments are fewer than the count that triggers one.
	settle := tr.child("serve.settle", root)
	defer tr.end(settle)
	deadline := time.Now().Add(60 * time.Second)
	for {
		hl, err := healthz(h)
		if err != nil {
			return nil, err
		}
		if hl.QueueLen == 0 && hl.Segments < compactMinSegments {
			res.health = hl
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("store did not settle: %+v", hl)
		}
		time.Sleep(5 * time.Millisecond)
	}
	s.check(res.health.Records == s.truth.emits && res.health.Batches == uint64(l.batches),
		"/healthz reports %d records in %d batches, the ledger %d in %d", res.health.Records, res.health.Batches, s.truth.emits, l.batches)
	res.queryRows = s.checkStore(h, l, "settled store")
	return r, nil
}

// serve repeats the ingest phase, each time into a fresh service, until its
// share of the run is spent (at least IngestRounds times), then reads the
// last round's settled store back and restarts that service over a crash
// image of its data directory.
//
// With a tracer, the repetitions of each step alternate between traced and
// untraced, twice as many in all: the traced ones leave spans, the
// untraced ones fill the result, so the traced pass carries its own
// untraced base taken in the same stretch of time.
func (s *session) serve(pushes [][]batch, dataDir string, tr *tracer) (*serveResult, error) {
	res := &serveResult{tracedCPUMs: map[string][]float64{}}
	// traced returns the tracer and a fresh root span for a traced
	// repetition, and nil for an untraced one.
	traced := func(rep int) (*tracer, int) {
		if tr == nil || rep%2 == 1 {
			return nil, -1
		}
		return tr, tr.session("stage.serve")
	}
	passes, rounds := 1, s.w.IngestRounds
	if tr != nil {
		// Five rounds a half are enough for the coverage median and keep
		// big-graph's traced run, whose rounds each compile the decoder,
		// well inside its time.
		passes, rounds = 2, min(rounds, 5)
	}
	var r *ingestRound
	var rates, cpuPer []float64
	err := repeat(s.budget.of("ingest"), passes*rounds, passes*15, func(rep int) error {
		if r != nil {
			if err := closeServer(r.srv); err != nil {
				return err
			}
			if err := os.RemoveAll(dataDir); err != nil {
				return err
			}
		}
		rtr, root := traced(rep)
		var err error
		r, err = s.ingest(pushes, dataDir, rtr, root, res)
		rtr.end(root)
		if err != nil {
			return err
		}
		res.acked += r.acked
		if rtr != nil {
			res.tracedCPUMs["round"] = append(res.tracedCPUMs["round"], ms(r.cpu))
			return nil
		}
		rates = append(rates, float64(r.acked)/r.wall.Seconds())
		cpuPer = append(cpuPer, float64(r.cpu.Microseconds())/float64(r.acked))
		res.ackMs = append(res.ackMs, r.ackMs...)
		res.roundMs, res.roundCPUMs = append(res.roundMs, ms(r.wall)), append(res.roundCPUMs, ms(r.cpu))
		return nil
	})
	if err != nil {
		return nil, err
	}
	res.ratePerS, res.cpuUsPerBatch = median(rates), median(cpuPer)
	s.logReps("ingest batches/s", rates)
	s.logReps("ingest cpu us/batch", cpuPer)
	h, l := r.h, r.ledger

	// Reads on the settled store, alternating the two top-K routes, each
	// from a collected heap.
	wantTop := topK(l.byContext(s.truth.names), topN)
	err = repeat(s.budget.of("reads"), passes*5*s.w.MinReps, passes*2000, func(rep int) error {
		rtr, root := traced(rep)
		defer rtr.end(root)
		settleGC()
		sp := rtr.child("server.query", root)
		sw := startWatch()
		q, err := queryTop(h, topN)
		wall, cpu := sw.stop()
		rtr.end(sp)
		if rtr == nil {
			res.queryMs, res.queryCPUMs = append(res.queryMs, wall), append(res.queryCPUMs, cpu)
		} else {
			res.tracedCPUMs["query"] = append(res.tracedCPUMs["query"], cpu)
		}
		if err != nil {
			s.fail(err)
		} else {
			s.check(rowsEqual(q, wantTop), "/query?top=%d on the settled store differs from the ledger's top-K", topN)
		}
		settleGC()
		sp = rtr.child("server.top", root)
		sw = startWatch()
		t, err := top(h, topN)
		wall, cpu = sw.stop()
		rtr.end(sp)
		if rtr == nil {
			res.topMs, res.topCPUMs = append(res.topMs, wall), append(res.topCPUMs, cpu)
		} else {
			res.tracedCPUMs["top"] = append(res.tracedCPUMs["top"], cpu)
		}
		if err != nil {
			s.fail(err)
		} else {
			s.check(rowsEqual(topRows(t), wantTop), "/top?n=%d on the settled store differs from the ledger's top-K", topN)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if res.promMetrics, err = scrape(h); err != nil {
		return nil, err
	}
	tenantDir := filepath.Join(dataDir, tenantName)
	if res.storeBytes, err = dirBytes(tenantDir); err != nil {
		return nil, err
	}

	// Restarts: each recovers a fresh copy of the crash image taken here,
	// on the idle service — the state a kill at this instant leaves.
	image := dataDir + "-image"
	if err := copyDir(tenantDir, filepath.Join(image, tenantName)); err != nil {
		return nil, err
	}
	if err := closeServer(r.srv); err != nil {
		return nil, err
	}
	err = repeat(s.budget.of("restart"), passes*minRestarts, passes*maxRestarts, func(rep int) error {
		dir := fmt.Sprintf("%s-restart%d", dataDir, rep)
		if err := copyDir(filepath.Join(image, tenantName), filepath.Join(dir, tenantName)); err != nil {
			return err
		}
		rtr, root := traced(rep)
		settleGC()
		sp := rtr.child("server.recovery", root)
		sw := startWatch()
		srv2, err := server.New(s.serverConfig(dir))
		if err != nil {
			return err
		}
		hl, err := srv2.AddTenant(tenantName, bytes.NewReader(s.dpa))
		wall, cpu := sw.stop()
		rtr.end(sp)
		rtr.end(root)
		if err != nil {
			return err
		}
		if rtr == nil {
			res.recoveryMs, res.recoveryCPUMs = append(res.recoveryMs, wall), append(res.recoveryCPUMs, cpu)
		} else {
			res.tracedCPUMs["recovery"] = append(res.tracedCPUMs["recovery"], cpu)
		}
		res.recovered = hl
		s.check(hl.Records == s.truth.emits, "restart %d recovered %d records, the ledger holds %d", rep, hl.Records, s.truth.emits)
		s.checkStore(srv2.Handler(), l, fmt.Sprintf("restart %d", rep))
		if err := closeServer(srv2); err != nil {
			return err
		}
		return os.RemoveAll(dir)
	})
	if err != nil {
		return nil, fmt.Errorf("restart: %w", err)
	}

	// One more restart over the directory the graceful close left.
	srv3, err := server.New(s.serverConfig(dataDir))
	if err != nil {
		return nil, err
	}
	if _, err := srv3.AddTenant(tenantName, bytes.NewReader(s.dpa)); err != nil {
		return nil, err
	}
	s.checkStore(srv3.Handler(), l, "restart after graceful close")
	if err := closeServer(srv3); err != nil {
		return nil, err
	}
	return res, os.RemoveAll(image)
}

func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		fi, err := d.Info()
		if err != nil {
			return err
		}
		n += fi.Size()
		return nil
	})
	return n, err
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}
