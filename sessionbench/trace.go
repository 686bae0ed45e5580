package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one traced interval: a call into one layer's public function,
// recorded from the benchmark's side of the call.
type span struct {
	Name    string `json:"name"`
	Start   int64  `json:"start_ns"` // since the tracer's origin
	End     int64  `json:"end_ns"`
	Parent  int    `json:"parent"`  // index of the parent span; -1 for a pipeline root
	Session int    `json:"session"` // shared by every span of one pipeline pass
	// Agg marks an aggregate span: the summed duration of many short calls
	// made inside Parent (every Profile.Add of one session), recorded as
	// one interval starting at the first call so that per-call spans do
	// not distort what they measure.
	Agg bool `json:"aggregate,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// layer is the module a span's name belongs to: the text before the first
// dot ("core.encode" → "core").
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory; write dumps them once at the end of a run.
// A nil *tracer is the untraced mode: every method is a no-op.
type tracer struct {
	mu       sync.Mutex
	origin   time.Time
	spans    []span
	sessions int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// session opens a pipeline pass: a root span every later span of the pass
// hangs below. It returns the root's index.
func (t *tracer) session(name string) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	t.sessions++
	sid := t.sessions
	t.mu.Unlock()
	return t.begin(name, -1, sid)
}

// begin opens a span below parent (which fixes its session) and returns its
// index for end.
func (t *tracer) begin(name string, parent, sid int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if parent >= 0 {
		sid = t.spans[parent].Session
	}
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Session: sid})
	return len(t.spans) - 1
}

// child opens a span below parent.
func (t *tracer) child(name string, parent int) int { return t.begin(name, parent, 0) }

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// aggregate records total as one aggregate span below parent, starting at
// start.
func (t *tracer) aggregate(name string, parent int, start time.Time, total time.Duration) {
	if t == nil || parent < 0 {
		return
	}
	s := start.Sub(t.origin).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: s, End: s + total.Nanoseconds(),
		Parent: parent, Session: t.spans[parent].Session, Agg: true})
}

// do runs f inside a span below parent.
func (t *tracer) do(name string, parent int, f func() error) error {
	id := t.child(name, parent)
	err := f()
	t.end(id)
	return err
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// unionNs is the length of the union of the intervals.
func unionNs(iv [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curS, curE int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curS, curE, open = x[0], x[1], true
		case x[0] <= curE:
			if x[1] > curE {
				curE = x[1]
			}
		default:
			total += curE - curS
			curS, curE = x[0], x[1]
		}
	}
	if open {
		total += curE - curS
	}
	return total
}

// covered reports how much of span id its children cover: the union of its
// ordinary children's intervals plus the durations of its aggregate
// children (each of which already sums disjoint calls).
func covered(spans []span, children [][]int, id int) int64 {
	var iv [][2]int64
	var agg int64
	for _, c := range children[id] {
		if spans[c].Agg {
			agg += spans[c].dur()
			continue
		}
		iv = append(iv, [2]int64{spans[c].Start, spans[c].End})
	}
	return unionNs(iv) + agg
}

func childIndex(spans []span) [][]int {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	return children
}

// ledgerRow is one layer's line of the per-layer ledger.
type ledgerRow struct {
	Layer  string
	SelfNs int64
	Spans  int
}

// layerLedger sums each layer's self time — a span's duration minus the part of
// it its children cover — over every non-root span, hottest layer first.
func layerLedger(spans []span) []ledgerRow {
	children := childIndex(spans)
	rows := map[string]*ledgerRow{}
	for i, s := range spans {
		if s.Parent < 0 || s.End < 0 {
			continue
		}
		r := rows[s.layer()]
		if r == nil {
			r = &ledgerRow{Layer: s.layer()}
			rows[s.layer()] = r
		}
		r.SelfNs += s.dur() - covered(spans, children, i)
		r.Spans++
	}
	out := make([]ledgerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNs != out[j].SelfNs {
			return out[i].SelfNs > out[j].SelfNs
		}
		return out[i].Layer < out[j].Layer
	})
	return out
}

// renderLedger prints the ledger table, hottest layer first.
func renderLedger(w io.Writer, rows []ledgerRow) {
	var total int64
	for _, r := range rows {
		total += r.SelfNs
	}
	fmt.Fprintf(w, "%-12s %12s %7s %8s\n", "layer", "self ms", "share", "spans")
	for _, r := range rows {
		share := 0.0
		if total > 0 {
			share = 100 * float64(r.SelfNs) / float64(total)
		}
		fmt.Fprintf(w, "%-12s %12.3f %6.1f%% %8d\n", r.Layer, float64(r.SelfNs)/1e6, share, r.Spans)
	}
}

// writeSpans writes every span as one JSON line to path.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
