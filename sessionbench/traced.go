package main

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"sync"
	"time"

	"deltapath"
	"deltapath/internal/analysisio"
	"deltapath/internal/cha"
	"deltapath/internal/core"
	"deltapath/internal/cpt"
	"deltapath/internal/encoding"
	"deltapath/internal/instrument"
	"deltapath/internal/minivm"
	"deltapath/internal/verify"
)

// The traced run repeats the analyse, extend, run and decode pipelines as
// sequences of calls into each layer's public functions — the calls
// Analyze, Extend and RunParallel make — with a span around each call. The
// replicas must reproduce the public path's outputs (the same .dpa bytes,
// the same final graph digest, the same profile), which the run checks.

// epochReplica is one analysis epoch as the replica builds it.
type epochReplica struct {
	build    *cha.Result
	res      *core.Result
	cptPlan  *cpt.Plan
	plan     *instrument.Plan
	digest   analysisio.GraphDigest
	cert     *verify.Certificate // nil at epoch 0, as Analyze publishes it
	absorbed []string
}

// analyseReplica is Analyze + VerifyEncoding + SaveAnalysis, one span per
// layer call, below parent (no spans when tr is nil).
func (s *session) analyseReplica(tr *tracer, parent int) (*epochReplica, []byte, error) {
	ep := &epochReplica{}
	var err error
	opts := cha.Options{Setting: cha.EncodingAll, KeepUnreachable: true}
	if err = tr.do("cha.build", parent, func() error { ep.build, err = cha.Build(s.prog, opts); return err }); err != nil {
		return nil, nil, err
	}
	g := ep.build.Graph
	if err = tr.do("core.encode", parent, func() error { ep.res, err = core.Encode(g, core.Options{}); return err }); err != nil {
		return nil, nil, err
	}
	tr.do("cpt.compute", parent, func() error { ep.cptPlan = cpt.Compute(g); return nil })
	if err = tr.do("instrument.plan", parent, func() error {
		ep.plan, err = instrument.NewPlan(ep.build, ep.res.Spec, ep.cptPlan)
		return err
	}); err != nil {
		return nil, nil, err
	}
	tr.do("encoding.compile", parent, func() error { encoding.Compile(ep.res.Spec); return nil })
	tr.do("analysisio.digest", parent, func() error { ep.digest = analysisio.DigestGraph(g); return nil })
	var rep *verify.Report
	tr.do("verify.check", parent, func() error { rep = verify.Check(ep.res.Spec, ep.plan.CPT, verify.Options{}); return nil })
	if !rep.Clean() {
		return nil, nil, fmt.Errorf("replica analysis fails verification:\n%s", rep.Text())
	}
	var buf bytes.Buffer
	if err = tr.do("analysisio.save", parent, func() error {
		return analysisio.SaveEpoch(&buf, ep.res.Spec, ep.plan.CPT, 0)
	}); err != nil {
		return nil, nil, err
	}
	return ep, buf.Bytes(), nil
}

// extendReplica is one Extend(cls) over prev, one span per layer call.
func (s *session) extendReplica(tr *tracer, parent int, prev *epochReplica, cls string) (*epochReplica, *core.ExtendStats, error) {
	ep := &epochReplica{absorbed: append(append([]string(nil), prev.absorbed...), cls)}
	var err error
	opts := cha.Options{Setting: cha.EncodingAll, KeepUnreachable: true}
	if err = tr.do("cha.extend", parent, func() error {
		ep.build, err = cha.Extend(prev.build, s.prog, ep.absorbed, opts)
		return err
	}); err != nil {
		return nil, nil, err
	}
	g := ep.build.Graph
	var cst *core.ExtendStats
	if err = tr.do("core.extend", parent, func() error {
		ep.res, cst, err = core.Extend(prev.res, g, core.Options{})
		return err
	}); err != nil {
		return nil, nil, err
	}
	tr.do("cpt.compute", parent, func() error { ep.cptPlan = cpt.Compute(g); return nil })
	var rep *verify.Report
	tr.do("verify.extend", parent, func() error {
		if prev.cert != nil {
			if drep, derr := verify.CheckDelta(prev.cert, ep.res.Spec, ep.cptPlan, cst.DirtyTerritoryList, verify.Options{}); derr == nil {
				rep = drep
			}
		}
		if rep == nil {
			rep = verify.Check(ep.res.Spec, ep.cptPlan, verify.Options{})
		}
		return nil
	})
	if !rep.Clean() {
		return nil, nil, fmt.Errorf("replica extension %s fails verification:\n%s", cls, rep.Text())
	}
	ep.cert = rep.Certificate
	if err = tr.do("instrument.plan", parent, func() error {
		ep.plan, err = instrument.NewPlanFrom(ep.build, ep.res.Spec, ep.cptPlan, prev.plan)
		return err
	}); err != nil {
		return nil, nil, err
	}
	tr.do("encoding.compile", parent, func() error { encoding.Compile(ep.res.Spec); return nil })
	tr.do("analysisio.digest", parent, func() error { ep.digest = analysisio.DigestGraph(g); return nil })
	return ep, cst, nil
}

// layerTimes sums, per span name, the durations of every span below root.
func layerTimes(spans []span, root int) map[string]float64 {
	out := map[string]float64{}
	for i, sp := range spans {
		if i != root && sp.Session == spans[root].Session {
			out[sp.Name] += float64(sp.dur()) / 1e6
		}
	}
	return out
}

// tracedStage collects one pipeline's traced repetitions, each paired with
// an untraced run of the public path taken just before it: wall and CPU
// time of both halves, how much of the traced root the layer spans cover,
// and per-name times.
type tracedStage struct {
	baseMs, baseCPU       []float64
	rootMs, rootCPU       []float64
	coveredMs, rootShares []float64
	layers                []map[string]float64
}

// add records the traced pass below root, which tw timed from the root's
// start, against the untraced pass that took baseMs of wall and baseCPU
// milliseconds of CPU time.
func (t *tracedStage) add(tr *tracer, root int, baseMs, baseCPU float64, tw stopwatch) {
	_, cpu := tw.stop()
	spans := tr.snapshot()
	children := childIndex(spans)
	rootMs := float64(spans[root].dur()) / 1e6
	cov := float64(covered(spans, children, root)) / 1e6
	t.baseMs, t.baseCPU = append(t.baseMs, baseMs), append(t.baseCPU, baseCPU)
	t.rootMs, t.rootCPU = append(t.rootMs, rootMs), append(t.rootCPU, cpu)
	t.coveredMs, t.rootShares = append(t.coveredMs, cov), append(t.rootShares, cov/rootMs)
	t.layers = append(t.layers, layerTimes(spans, root))
}

// share is how much of the untraced stage the layer spans account for:
// over the pairs, the median of the share of the traced root they cover
// times the traced half's CPU time over the untraced half's. CPU time
// rather than wall keeps CPU steal and fsync stalls landing on one half of
// a pair off the comparison.
func (t *tracedStage) share() float64 {
	var xs []float64
	for i := range t.rootShares {
		xs = append(xs, t.rootShares[i]*t.rootCPU[i]/t.baseCPU[i])
	}
	return median(xs)
}

// layer is the median over repetitions of one span name's time.
func (t *tracedStage) layer(name string) float64 {
	var xs []float64
	for _, l := range t.layers {
		xs = append(xs, l[name])
	}
	return median(xs)
}

// coverage publishes how much of the untraced stage time the layer spans
// cover and the tracing overhead (traced minus untraced stage wall time,
// medians), and checks the coverage against coverageTolerance: a replica
// that skips a layer, or does work the public path does not, falls outside
// it.
func (s *session) coverage(stage string, t *tracedStage) {
	c := t.share()
	s.logReps(stage+" untraced cpu ms", t.baseCPU)
	s.logReps(stage+" traced cpu ms", t.rootCPU)
	s.put("trace.coverage."+stage, c, "ratio")
	s.put("trace.overhead_ms."+stage, median(t.rootMs)-median(t.baseMs), "ms")
	s.check(c > 0 && c >= 1-coverageTolerance && c <= 1+coverageTolerance,
		"%s layer spans cover %.3f of the untraced stage time (%d pairs), outside 1±%.2f",
		stage, c, len(t.rootCPU), coverageTolerance)
}

// coverageTolerance is how far the traced layer spans of a pipeline may
// differ from its untraced stage time: the replicas call the same layer
// functions as the public path, so what remains is run-to-run noise and
// the benchmark's own glue between calls.
const coverageTolerance = 0.15

// tracedPairs is the least number of traced repetitions, each paired with
// an untraced one, that the analyse and extend pipelines take: one pair of
// big-graph's 6-s stages differed by up to a fifth in CPU time, and the
// coverage is the median over the pairs. The run pipeline, whose
// repetitions are cheap and whose goroutine-per-seed schedule varies more,
// takes three times as many.
const tracedPairs = 3

// traceAnalyse replays the analyse pipeline with layer spans, then the
// extend pipeline over the replica's epochs. Each repetition first runs
// the public path untraced — Analyze + VerifyEncoding + SaveAnalysis, then
// one Extend per dynamic class on that analysis — and then the traced
// replicas, so that each traced stage is paired with the untraced one.
func (s *session) traceAnalyse() error {
	var an, ex tracedStage
	var last *epochReplica
	var stats []*core.ExtendStats
	limit := s.budget.of("analyse") + s.budget.of("extend")
	err := repeat(limit, max(tracedPairs, s.w.MinReps), s.w.MaxReps, func(rep int) error {
		// Both halves of a pair start from the same live heap, so that
		// they pay for the same number of collections: the previous
		// repetition's replica is dropped first.
		last = nil
		settleGC()
		sw := startWatch()
		pub, err := deltapath.Analyze(s.prog, deltapath.Options{})
		if err == nil {
			err = pub.VerifyEncoding()
		}
		if err == nil {
			err = pub.SaveAnalysis(io.Discard)
		}
		if err != nil {
			return err
		}
		anBase, anBaseCPU := sw.stop()
		settleGC()
		sw = startWatch()
		for _, cls := range s.dynOrder {
			if _, err := pub.Extend(cls); err != nil {
				return err
			}
		}
		exBase, exBaseCPU := sw.stop()

		settleGC()
		root := s.tr.session("stage.analyse")
		tw := startWatch()
		ep, dpa, err := s.analyseReplica(s.tr, root)
		s.tr.end(root)
		if err != nil {
			return err
		}
		an.add(s.tr, root, anBase, anBaseCPU, tw)
		s.check(bytes.Equal(dpa, s.dpa), "the layer-by-layer analysis saved a different .dpa than Analyze")
		last = ep

		settleGC()
		root = s.tr.session("stage.extend")
		tw = startWatch()
		var st []*core.ExtendStats
		for _, cls := range s.dynOrder {
			next, cst, err := s.extendReplica(s.tr, root, ep, cls)
			if err != nil {
				s.tr.end(root)
				return err
			}
			ep = next
			st = append(st, cst)
		}
		s.tr.end(root)
		ex.add(s.tr, root, exBase, exBaseCPU, tw)
		s.check(ep.digest.String() == s.finalDigest,
			"the layer-by-layer extension ends at graph %s, Extend at %s", ep.digest, s.finalDigest)
		if rep == 0 {
			stats = st
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("traced analyse and extend: %w", err)
	}
	s.coverage("analyse", &an)
	s.coverage("extend", &ex)
	g := last.build.Graph
	s.put("cha.build_ms", an.layer("cha.build"), "ms")
	s.put("cha.nodes", float64(g.NumNodes()), "count")
	s.put("cha.edges", float64(g.NumEdges()), "count")
	s.put("core.encode_ms", an.layer("core.encode"), "ms")
	s.put("core.anchors", float64(len(last.res.OverflowAnchors)), "count")
	s.put("core.restarts", float64(last.res.Restarts), "count")
	s.put("cpt.compute_ms", an.layer("cpt.compute"), "ms")
	s.put("instrument.plan_ms", an.layer("instrument.plan"), "ms")
	s.put("instrument.sites", float64(last.plan.NumInstrumentedSites()), "count")
	s.put("encoding.compile_ms", an.layer("encoding.compile"), "ms")
	s.put("verify.check_ms", an.layer("verify.check"), "ms")
	s.put("analysisio.save_ms", an.layer("analysisio.save"), "ms")
	s.put("cha.extend_ms", ex.layer("cha.extend"), "ms")
	s.put("core.extend_ms", ex.layer("core.extend"), "ms")
	s.put("verify.extend_ms", ex.layer("verify.extend"), "ms")
	var dirty, total int
	for _, st := range stats {
		dirty += st.DirtyNodes
		total += st.TotalNodes
	}
	s.put("core.extend_dirty_nodes", float64(dirty), "count")
	s.put("core.extend_total_nodes", float64(total), "count")
	var checked, all int
	for _, st := range s.extendStats {
		checked += st.ObligationsChecked
		all += st.ObligationsTotal
	}
	s.put("verify.obligations_checked", float64(checked), "count")
	s.put("verify.obligations_total", float64(all), "count")
	return nil
}

// traceRun replays RunParallel at epoch 0 as NewSession and Run per seed,
// one goroutine each, with Profile.Add summed per session; then runs the
// same seeds natively (no probes) on two workers for the VM's ceiling.
func (s *session) traceRun(an *deltapath.Analysis) error {
	var rn tracedStage
	var steps, hazards uint64
	err := repeat(s.budget.of("run"), max(3*tracedPairs, s.w.MinReps), s.w.MaxReps, func(rep int) error {
		settleGC()
		sw := startWatch()
		if _, err := an.RunParallel(s.seeds, nil); err != nil {
			return err
		}
		base, baseCPU := sw.stop()
		settleGC()
		p := an.NewProfile(0)
		root := s.tr.session("stage.run")
		tw := startWatch()
		stepsPer := make([]uint64, len(s.seeds))
		hazPer := make([]uint64, len(s.seeds))
		errs := make([]error, len(s.seeds))
		// One goroutine per seed, as Profile.CollectContext starts them.
		var wg sync.WaitGroup
		for i := range s.seeds {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				s.runSeedTraced(an, p, root, i, stepsPer, hazPer, errs)
			}(i)
		}
		wg.Wait()
		s.tr.end(root)
		for _, err := range errs {
			if err != nil {
				return err
			}
		}
		rn.add(s.tr, root, base, baseCPU, tw)
		s.checkProfile(p, rep == 0)
		steps, hazards = 0, 0
		for i := range s.seeds {
			steps += stepsPer[i]
			hazards += hazPer[i]
		}
		return nil
	})
	if err != nil {
		return fmt.Errorf("traced run: %w", err)
	}
	s.coverage("run", &rn)
	s.put("deltapath.session_setup_ms", rn.layer("deltapath.session_setup"), "ms")
	s.put("deltapath.session_run_ms", rn.layer("deltapath.session_run"), "ms")
	s.put("deltapath.hazards", float64(hazards), "count")
	s.put("profile.add_ms", rn.layer("profile.add"), "ms")
	s.put("minivm.steps", float64(steps), "count")

	var native []float64
	err = repeat(s.budget.of("run"), s.w.MinReps, s.w.MaxReps, func(int) error {
		settleGC()
		root := s.tr.session("stage.native")
		var nsteps uint64
		errs := make([]error, len(s.seeds))
		stepsPer := make([]uint64, len(s.seeds))
		t0 := time.Now()
		parallel(len(s.seeds), 2, func(i int) {
			id := s.tr.child("minivm.run", root)
			defer s.tr.end(id)
			vm, err := minivm.NewVM(s.prog, s.seeds[i])
			if err != nil {
				errs[i] = err
				return
			}
			errs[i] = vm.Run()
			stepsPer[i] = vm.Steps
		})
		dt := time.Since(t0)
		s.tr.end(root)
		for i, err := range errs {
			if err != nil {
				return err
			}
			nsteps += stepsPer[i]
		}
		native = append(native, float64(nsteps)/dt.Seconds())
		return nil
	})
	if err != nil {
		return fmt.Errorf("native run: %w", err)
	}
	s.put("minivm.native_steps_per_s", median(native), "1/s")
	return nil
}

// runSeedTraced is one seed's NewSession and Run inside the traced run
// pipeline, with Profile.Add summed into one aggregate span.
func (s *session) runSeedTraced(an *deltapath.Analysis, p *deltapath.Profile, root, i int, stepsPer, hazPer []uint64, errs []error) {
	id := s.tr.child("deltapath.session_setup", root)
	sess, err := an.NewSession(s.seeds[i])
	s.tr.end(id)
	if err != nil {
		errs[i] = err
		return
	}
	id = s.tr.child("deltapath.session_run", root)
	var add time.Duration
	var first time.Time
	_, errs[i] = sess.Run(func(c deltapath.Context) {
		t0 := time.Now()
		if first.IsZero() {
			first = t0
		}
		p.Add(c)
		add += time.Since(t0)
	})
	s.tr.end(id)
	if !first.IsZero() {
		s.tr.aggregate("profile.add", id, first, add)
	}
	stepsPer[i], hazPer[i] = sess.VM().Steps, sess.Hazards()
}

// traceDecode times the .dpp save and the 2-worker DecodeProfile as spans,
// then a single-threaded DecodeBytes pass over every record, then the
// .dpa load a restart pays.
func (s *session) traceDecode(an *deltapath.Analysis) error {
	var save, dec, single, load []float64
	var dppBytes int
	err := repeat(s.budget.of("decode"), s.w.MinReps, s.w.MaxReps, func(int) error {
		settleGC()
		root := s.tr.session("stage.decode")
		var buf bytes.Buffer
		t0 := time.Now()
		err := s.tr.do("profile.save", root, func() error { return s.prof.Save(&buf) })
		save = append(save, ms(time.Since(t0)))
		if err != nil {
			return err
		}
		dppBytes = buf.Len()
		t0 = time.Now()
		var r *deltapath.ProfileReport
		err = s.tr.do("profile.decode", root, func() error {
			r, err = an.DecodeProfile(bytes.NewReader(buf.Bytes()), 2)
			return err
		})
		dec = append(dec, ms(time.Since(t0)))
		s.tr.end(root)
		if err != nil {
			return err
		}
		s.checkReport("traced DecodeProfile", r, s.truth.byContext())

		root = s.tr.session("stage.decode_single")
		decoded := make([][]string, len(s.truth.recs))
		t0 = time.Now()
		err = s.tr.do("encoding.decode", root, func() error {
			for i, rec := range s.truth.recs {
				if decoded[i], err = an.DecodeBytes(rec); err != nil {
					return err
				}
			}
			return nil
		})
		single = append(single, float64(time.Since(t0).Nanoseconds())/float64(len(s.truth.recs)))
		s.tr.end(root)
		if err != nil {
			return err
		}
		bad := 0
		for i, names := range decoded {
			if strings.Join(names, " > ") != s.truth.names[i] {
				bad++
			}
		}
		s.check(bad == 0, "%d records decode differently single-threaded", bad)

		root = s.tr.session("stage.load")
		t0 = time.Now()
		err = s.tr.do("analysisio.load", root, func() error {
			_, err := analysisio.Load(bytes.NewReader(s.dpa))
			return err
		})
		load = append(load, ms(time.Since(t0)))
		s.tr.end(root)
		return err
	})
	if err != nil {
		return fmt.Errorf("traced decode: %w", err)
	}
	s.put("profile.save_ms", median(save), "ms")
	s.put("profile.dpp_kb", float64(dppBytes)/1024, "KB")
	s.put("profile.decode_ms", median(dec), "ms")
	s.put("profile.unique", float64(s.prof.Unique()), "count")
	s.put("profile.total", float64(s.prof.Total()), "count")
	s.put("encoding.decode_ns_per_ctx", median(single), "ns")
	s.put("analysisio.load_ms", median(load), "ms")
	return nil
}
