package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"deltapath"
	"deltapath/internal/minivm"
)

// metric is one printed measurement.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// session is one profiling session over one workload: analyse, run,
// decode, extend, serve and restart, each stage's outputs checked against
// a computation made apart from the program.
type session struct {
	w      spec
	seed   uint64
	budget budget
	tr     *tracer // nil in the untraced run
	heap   *heapSampler
	log    io.Writer
	root   string // the run's private directory under .bench_build

	metrics map[string]metric

	attempted, failed uint64
	correct           bool
	problems          []string

	prog     *deltapath.Program
	seeds    []uint64
	dataDir  string
	dynOrder []string // dynamic classes in load order

	an    *deltapath.Analysis // epoch 0 until the extend stage
	dpa   []byte              // the certified epoch-0 .dpa
	truth *truth
	prof  *deltapath.Profile
	dpp   []byte

	extendStats []*deltapath.ExtendStats
	finalDigest string // the graph digest of the last epoch Extend published
}

func newSession(w spec, seed uint64, seconds time.Duration, traced bool, root string, log io.Writer) *session {
	s := &session{
		w:       w,
		seed:    seed,
		budget:  budget{total: seconds},
		log:     log,
		root:    root,
		metrics: map[string]metric{},
		correct: true,
	}
	if traced {
		s.tr = newTracer()
		// The traced run repeats every stage untraced and traced; each
		// half gets half the run's time.
		s.budget.total /= 2
	}
	return s
}

func (s *session) put(name string, v float64, unit string) { s.metrics[name] = metric{v, unit} }

// ok counts one operation that succeeded with a correct output.
func (s *session) ok() { s.attempted++ }

// check counts one operation whose output is correct iff good.
func (s *session) check(good bool, format string, args ...any) {
	s.attempted++
	if !good {
		s.correct = false
		s.note("WRONG: "+format, args...)
	}
}

// fail counts one operation that returned an error.
func (s *session) fail(err error) {
	s.attempted++
	s.failed++
	s.note("FAILED: %v", err)
}

func (s *session) note(format string, args ...any) {
	const keep = 20
	if len(s.problems) < keep {
		s.problems = append(s.problems, fmt.Sprintf(format, args...))
	}
}

func (s *session) logf(format string, args ...any) {
	fmt.Fprintf(s.log, "sessionbench: "+format+"\n", args...)
}

// logReps prints a repeated stage's spread: repetitions, min, median, max.
func (s *session) logReps(stage string, xs []float64) {
	lo, hi := quantile(xs, 0), quantile(xs, 1)
	s.logf("%s: %s x%d: min %.4g median %.4g max %.4g", s.w.Name, stage, len(xs), lo, median(xs), hi)
}

// setup generates the program and the seed list and creates the data
// directory: everything before the first timed stage. It repeats
// SetupReps times and reports the median CPU time.
func (s *session) setup() error {
	var secs []float64
	for rep := 0; rep < s.w.SetupReps; rep++ {
		dir := filepath.Join(s.root, fmt.Sprintf("data-%d", rep))
		sw := startWatch()
		p, err := s.w.params()
		if err != nil {
			return err
		}
		prog, err := p.Generate()
		if err != nil {
			return err
		}
		seeds := vmSeeds(s.seed, s.w.Seeds)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
		_, cpu := sw.stop()
		secs = append(secs, cpu/1e3)
		if s.dataDir != "" {
			if err := os.RemoveAll(s.dataDir); err != nil {
				return err
			}
		}
		s.prog, s.seeds, s.dataDir = prog, seeds, dir
	}
	s.put("setup_s", median(secs), "s")
	s.dynOrder = s.dynOrder[:0]
	for _, c := range s.prog.Dynamic {
		s.dynOrder = append(s.dynOrder, c.Name)
	}
	return nil
}

// analyse times Analyze + VerifyEncoding + SaveAnalysis: program to
// certified .dpa bytes, as the median CPU time of the repetitions (see
// README.md for why CPU rather than wall time). Every repetition must save
// the same bytes.
func (s *session) analyse() error {
	var times, cpus []float64
	err := repeat(s.budget.of("analyse"), s.w.MinReps, s.w.MaxReps, func(rep int) error {
		// One analysis is live at a time: the previous repetition's is
		// dropped before this one builds the next.
		s.an = nil
		settleGC()
		sw := startWatch()
		an, err := deltapath.Analyze(s.prog, deltapath.Options{})
		if err != nil {
			return err
		}
		if err := an.VerifyEncoding(); err != nil {
			return err
		}
		var buf bytes.Buffer
		if err := an.SaveAnalysis(&buf); err != nil {
			return err
		}
		wall, cpu := sw.stop()
		times, cpus = append(times, wall), append(cpus, cpu)
		s.an = an
		if rep == 0 {
			s.dpa = buf.Bytes()
			s.ok()
		} else {
			s.check(bytes.Equal(buf.Bytes(), s.dpa), "analysis repetition %d saved a different .dpa", rep)
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("analyse: %w", err)
	}
	s.logReps("analyse ms", times)
	s.logReps("analyse cpu ms", cpus)
	s.put("analyse_ms", median(cpus), "ms")
	s.put("dpa_kb", float64(len(s.dpa))/1024, "KB")
	return nil
}

// truth is the ground truth of the workload's runs at epoch 0, taken in an
// untimed pass from the VM's own stack at every emit.
type truth struct {
	index  map[string]int32 // record bytes → record number
	recs   [][]byte
	names  []string  // each record's context, checked against the VM stack
	counts []uint64  // emits per record over all seeds
	stream [][]int32 // per seed, the record number of each emit in order
	emits  uint64
}

// analysedAt reports which frames an epoch's decode names: every static
// method, and methods of the dynamic classes absorbed so far.
func (s *session) analysedAt(absorbed []string) func(minivm.MethodRef) bool {
	dyn := map[string]bool{}
	for _, c := range s.prog.Dynamic {
		dyn[c.Name] = true
	}
	for _, c := range absorbed {
		dyn[c] = false
	}
	return func(m minivm.MethodRef) bool { return !dyn[m.Class] }
}

// renderStack renders a VM stack the way a decode of its context must read:
// analysed frames by name, each maximal run of other frames as one "...".
func renderStack(stack []minivm.MethodRef, analysed func(minivm.MethodRef) bool) string {
	var b strings.Builder
	inGap := false
	for _, m := range stack {
		if analysed(m) {
			if b.Len() > 0 {
				b.WriteString(" > ")
			}
			b.WriteString(m.String())
			inGap = false
		} else if !inGap {
			if b.Len() > 0 {
				b.WriteString(" > ")
			}
			b.WriteString("...")
			inGap = true
		}
	}
	return b.String()
}

// groundTruth runs every seed once more, untimed, recording each emit's
// record and checking its decode against the VM stack: at epoch 0 only
// stretches of unabsorbed dynamic code may read "...".
func (s *session) groundTruth() error {
	t := &truth{index: map[string]int32{}}
	analysed := s.analysedAt(nil)
	for _, seed := range s.seeds {
		sess, err := s.an.NewSession(seed)
		if err != nil {
			return err
		}
		var stream []int32
		var runErr error
		if _, err := sess.Run(func(c deltapath.Context) {
			rec, err := c.MarshalBinary()
			if err != nil {
				runErr = err
				return
			}
			idx, seen := t.index[string(rec)]
			if !seen {
				names, err := s.an.Decode(c)
				if err != nil {
					runErr = err
					return
				}
				idx = int32(len(t.recs))
				t.index[string(rec)] = idx
				t.recs = append(t.recs, rec)
				t.names = append(t.names, strings.Join(names, " > "))
				t.counts = append(t.counts, 0)
			}
			t.counts[idx]++
			stream = append(stream, idx)
			want := renderStack(sess.VM().Stack(), analysed)
			s.check(t.names[idx] == want, "seed %d: context decodes to %q, VM stack says %q", seed, t.names[idx], want)
		}); err != nil {
			return err
		}
		if runErr != nil {
			return runErr
		}
		t.stream = append(t.stream, stream)
		t.emits += uint64(len(stream))
	}
	s.truth = t
	s.logf("%s: %d seeds emit %d contexts, %d distinct records", s.w.Name, len(s.seeds), t.emits, len(t.recs))
	return nil
}

// byContext aggregates the ground truth's counts by decoded context.
func (t *truth) byContext() map[string]uint64 {
	out := make(map[string]uint64, len(t.names))
	for i, n := range t.names {
		out[n] += t.counts[i]
	}
	return out
}

// checkProfile compares a collected profile with the ground truth, record
// by record.
func (s *session) checkProfile(p *deltapath.Profile, full bool) {
	t := s.truth
	s.check(p.Total() == t.emits && p.Unique() == uint64(len(t.recs)) && p.Skipped() == 0,
		"profile holds %d contexts (%d distinct, %d skipped), the runs emitted %d (%d distinct)",
		p.Total(), p.Unique(), p.Skipped(), t.emits, len(t.recs))
	if !full {
		return
	}
	bad := 0
	for _, r := range p.Records() {
		idx, ok := t.index[string(r.Key)]
		if !ok || t.counts[idx] != r.Count {
			bad++
		}
	}
	s.check(bad == 0, "%d profile records disagree with the emitted contexts", bad)
}

// run times RunParallel over the seed list at epoch 0: contexts captured
// and interned per second of the process's CPU time.
func (s *session) run() error {
	var rates, cpus []float64
	err := repeat(s.budget.of("run"), s.w.MinReps, s.w.MaxReps, func(rep int) error {
		settleGC()
		sw := startWatch()
		p, err := s.an.RunParallel(s.seeds, nil)
		if err != nil {
			return err
		}
		wall, cpu := sw.stop()
		rates, cpus = append(rates, float64(p.Total())/wall*1e3), append(cpus, float64(p.Total())/cpu*1e3)
		s.checkProfile(p, rep == 0)
		if rep == 0 {
			s.prof = p
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	s.logReps("run ctx/s", rates)
	s.logReps("run ctx/cpu-s", cpus)
	s.put("run_ctx_per_s", median(cpus), "1/s")
	return nil
}

// checkReport compares a decoded profile with the ground truth aggregated
// by context.
func (s *session) checkReport(what string, rep *deltapath.ProfileReport, want map[string]uint64) {
	bad := 0
	for _, row := range rep.Rows {
		if want[row.Context] != row.Count {
			bad++
		}
	}
	s.check(bad == 0 && len(rep.Rows) == len(want) && rep.Total == s.truth.emits,
		"%s: %d of %d rows disagree with the emitted contexts (want %d rows, total %d; got total %d)",
		what, bad, len(rep.Rows), len(want), s.truth.emits, rep.Total)
}

// decode saves the profile as .dpp and times DecodeProfile with 2 workers
// (records per second of CPU time, each sample a block of calls spanning
// at least decodeBlockMs), then checks that the saved .dpa decodes
// every record the way the live analysis does.
func (s *session) decode() error {
	var buf bytes.Buffer
	if err := s.prof.Save(&buf); err != nil {
		return fmt.Errorf("decode: save profile: %w", err)
	}
	s.dpp = buf.Bytes()
	want := s.truth.byContext()
	var rates, cpus []float64
	var live *deltapath.ProfileReport
	err := repeat(s.budget.of("decode"), s.w.MinReps, s.w.MaxReps, func(rep int) error {
		settleGC()
		sw := startWatch()
		var reports []*deltapath.ProfileReport
		var records uint64
		for {
			if _, cpu := sw.stop(); len(reports) > 0 && cpu >= decodeBlockMs {
				break
			}
			r, err := s.an.DecodeProfile(bytes.NewReader(s.dpp), 2)
			if err != nil {
				return err
			}
			reports, records = append(reports, r), records+r.Records
		}
		wall, cpu := sw.stop()
		rates, cpus = append(rates, float64(records)/wall*1e3), append(cpus, float64(records)/cpu*1e3)
		for _, r := range reports {
			s.checkReport("DecodeProfile", r, want)
		}
		live = reports[len(reports)-1]
		return nil
	})
	if err != nil {
		return fmt.Errorf("decode: %w", err)
	}
	s.logReps("decode ctx/s", rates)
	s.logReps("decode ctx/cpu-s", cpus)
	s.put("decode_ctx_per_s", median(cpus), "1/s")
	return s.checkOffline(live)
}

// checkOffline decodes every record through LoadDecoder over the saved
// .dpa and compares with the live analysis.
func (s *session) checkOffline(live *deltapath.ProfileReport) error {
	od, err := deltapath.LoadDecoder(bytes.NewReader(s.dpa))
	if err != nil {
		return fmt.Errorf("LoadDecoder: %w", err)
	}
	s.check(od.CheckAnalysis(s.an) == nil, "the saved .dpa does not match the live analysis's graph")
	bad := 0
	for i, rec := range s.truth.recs {
		names, err := od.DecodeBytes(rec)
		if err != nil || strings.Join(names, " > ") != s.truth.names[i] {
			bad++
		}
	}
	s.check(bad == 0, "%d records decode differently from the saved .dpa", bad)
	r, err := od.DecodeProfile(bytes.NewReader(s.dpp), 2)
	if err != nil {
		s.fail(fmt.Errorf("offline DecodeProfile: %w", err))
		return nil
	}
	same := len(r.Rows) == len(live.Rows) && r.Total == live.Total
	for i := 0; same && i < len(r.Rows); i++ {
		same = r.Rows[i] == live.Rows[i]
	}
	s.check(same, "the offline profile report differs from the live one")
	return nil
}

// extend absorbs the dynamic classes one Extend call each, in load order,
// and times the calls (CPU time) until the last epoch is published. The
// first repetition extends the analysed epoch 0; each later one drops the
// previous repetition's analysis and extends a fresh, untimed one, so one
// analysis is live at a time. Every repetition must end at the same graph.
func (s *session) extend() error {
	var times, cpus []float64
	err := repeat(s.budget.of("extend"), s.w.MinReps, s.w.MaxReps, func(rep int) error {
		var an *deltapath.Analysis
		if rep == 0 {
			an = s.an
		} else {
			s.an = nil
			settleGC()
			var err error
			if an, err = deltapath.Analyze(s.prog, deltapath.Options{}); err != nil {
				return err
			}
		}
		settleGC()
		var stats []*deltapath.ExtendStats
		sw := startWatch()
		for _, cls := range s.dynOrder {
			st, err := an.Extend(cls)
			if err != nil {
				return err
			}
			stats = append(stats, st)
		}
		wall, cpu := sw.stop()
		times, cpus = append(times, wall), append(cpus, cpu)
		s.an = an
		good := an.Epoch() == uint64(len(s.dynOrder))
		for i, st := range stats {
			good = good && st.Epoch == uint64(i+1) && len(st.NewClasses) == 1
		}
		s.check(good, "extension repetition %d ended at epoch %d, want %d", rep, an.Epoch(), len(s.dynOrder))
		if rep > 0 {
			s.check(an.GraphDigest() == s.finalDigest, "extension repetition %d ended at graph %s, the first at %s", rep, an.GraphDigest(), s.finalDigest)
		}
		if rep == 0 {
			s.finalDigest = an.GraphDigest()
			s.extendStats = stats
			for _, st := range stats {
				s.logf("%s: Extend %v published epoch %d: %d of %d nodes dirty, verify %.0f ms (delta %v), %d of %d obligations checked",
					s.w.Name, st.NewClasses, st.Epoch, st.Core.DirtyNodes, st.Core.TotalNodes,
					float64(st.VerifyNs)/1e6, st.VerifyDelta, st.ObligationsChecked, st.ObligationsTotal)
			}
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("extend: %w", err)
	}
	s.logReps("extend ms", times)
	s.logReps("extend cpu ms", cpus)
	s.put("extend_ms", median(cpus), "ms")
	return s.checkExtended()
}

// checkExtended runs every seed at the last epoch: every context must now
// match the VM stack exactly, with no gaps and no hazards.
func (s *session) checkExtended() error {
	all := s.analysedAt(s.dynOrder)
	last := uint64(len(s.dynOrder))
	for _, seed := range s.seeds {
		sess, err := s.an.NewSession(seed)
		if err != nil {
			return err
		}
		var decErr error
		if _, err := sess.Run(func(c deltapath.Context) {
			names, err := s.an.Decode(c)
			if err != nil {
				decErr = err
				return
			}
			want := renderStack(sess.VM().Stack(), all)
			got := strings.Join(names, " > ")
			s.check(got == want, "seed %d at epoch %d: context decodes to %q, VM stack says %q", seed, last, got, want)
		}); err != nil {
			return err
		}
		if decErr != nil {
			s.fail(fmt.Errorf("seed %d at epoch %d: %w", seed, last, decErr))
		}
		s.check(sess.Epoch() == last && sess.Hazards() == 0,
			"seed %d: session at epoch %d with %d hazards after the last Extend, want epoch %d and 0", seed, sess.Epoch(), sess.Hazards(), last)
	}
	return nil
}

// topK is the K hottest contexts of counts: count descending, context
// ascending.
func topK(counts map[string]uint64, k int) []deltapath.HotContext {
	rows := make([]deltapath.HotContext, 0, len(counts))
	for c, n := range counts {
		rows = append(rows, deltapath.HotContext{Context: c, Count: n})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Count != rows[j].Count {
			return rows[i].Count > rows[j].Count
		}
		return rows[i].Context < rows[j].Context
	})
	if len(rows) > k {
		rows = rows[:k]
	}
	return rows
}

// parallel runs f over 0..n-1 on workers goroutines and waits for them.
func parallel(n, workers int, f func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}
