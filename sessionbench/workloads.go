package main

import (
	"fmt"
	"time"

	"deltapath/internal/workload"
)

// spec is one workload: which generated program the session profiles, how
// many runs it makes, and how its profile is pushed to the ingest service.
// Every field is an input the benchmark generates or a deployment setting a
// dprofiled operator sets; none switches the program into a comparison-only
// mode.
type spec struct {
	Name string
	// Program is the suite program (internal/workload) the session
	// analyses and runs; Lib, when non-zero, overrides its library class
	// count (the short mode's smaller graph).
	Program string
	Lib     int
	// Scale multiplies the program's top-level loop trip count.
	Scale float64
	// Seeds is how many VM seeds, derived from --seed, one run covers.
	Seeds int

	// BatchRecords is how many records (distinct contexts with their
	// counts) one ingest batch carries, as dprun -push-batch sets it: each
	// seed's profile is pushed the way agentclient.PushRecords pushes a
	// .dpp, in key order, cut into batches of at most BatchRecords.
	BatchRecords int
	// ReadPairs is how many /query?top=K + /top?n=K pairs an agent issues
	// during one ingest round, beside the other agent's pushes: after the
	// profiles (2k+1)/(2·ReadPairs) of the way through the round's profile
	// list. One pair costs 0.1–0.3 s of CPU on these stores, more than a
	// whole round of 512-record batches on big-graph and hot-loop, so only
	// fleet-ingest, whose round is thousands of small batches, reads
	// during ingest.
	ReadPairs int
	// MemtableMaxBytes and WALMaxBytes are dprofiled's -memtable-max-bytes
	// and -wal-max-bytes.
	MemtableMaxBytes int64
	WALMaxBytes      int64

	// Repetition floors and caps for the stages shorter than a second;
	// within them a stage repeats until its share of --seconds is spent.
	MinReps, MaxReps int
	// IngestRounds is the least number of times the whole batch list is
	// pushed, each time into a fresh service; the ingest metrics are
	// medians over the rounds.
	IngestRounds int
	// SetupReps is how many times set-up runs; setup_s is the median.
	SetupReps int
}

// agentBatchRecords is the batch size a shipped agent sends: the
// agentclient default and dprun's -push-batch default.
const agentBatchRecords = 512

// smallBatchRecords is the batch size of the repository's ingest
// experiment (eval.ingestBatchRecords): small batches are the shape group
// commit exists for, where the fsync rather than batch parsing is the
// per-ack cost.
const smallBatchRecords = 16

// topN is the K of /query?top=K and /top?n=K.
const topN = 10

// minRestarts is the least number of timed restarts recovery_ms takes the
// median of; within the restart share of the run more follow, up to
// maxRestarts.
const minRestarts, maxRestarts = 9, 41

// decodeBlockMs is the least CPU time one decode sample spans: a sample is
// as many consecutive DecodeProfile calls as reach it, so that a garbage
// collection or a worker hand-off falling into one call does not decide
// the sample.
const decodeBlockMs = 250

// compactMinSegments is dprofiled's -compact-min-segments, set to its
// default: the live segment count that triggers a compaction.
const compactMinSegments = 4

// neverFlush is the threshold the workloads whose stores must stay in the
// memtable set for both flush triggers.
const neverFlush = 1 << 30

// workloads are the benchmark's workloads, the ones BENCHMARK.json lists.
var workloads = []spec{
	{
		Name:    "hot-loop",
		Program: "scimark.monte_carlo", Scale: 0.2, Seeds: 16,
		BatchRecords: agentBatchRecords, ReadPairs: 0,
		MemtableMaxBytes: neverFlush, WALMaxBytes: neverFlush,
		MinReps: 3, MaxReps: 41, IngestRounds: 3, SetupReps: 25,
	},
	{
		Name:    "fleet-ingest",
		Program: "mpegaudio", Scale: 0.2, Seeds: 16,
		BatchRecords: smallBatchRecords, ReadPairs: 2,
		MemtableMaxBytes: 256 << 10, WALMaxBytes: 512 << 10,
		MinReps: 3, MaxReps: 41, IngestRounds: 3, SetupReps: 25,
	},
}

// unlisted are workloads the command runs by name but BENCHMARK.json does
// not list. big-graph is the one program past 2^63 contexts, where
// Algorithm 2 places anchors; its analysis and Extend each take several
// seconds, so a run holds one repetition of each, and single repetitions
// of identical code moved by up to a third between runs.
var unlisted = []spec{
	{
		Name:    "big-graph",
		Program: "xml.validation", Scale: 0.25, Seeds: 4,
		BatchRecords: agentBatchRecords, ReadPairs: 0,
		MemtableMaxBytes: neverFlush, WALMaxBytes: neverFlush,
		MinReps: 1, MaxReps: 41, IngestRounds: 9, SetupReps: 9,
	},
}

func workloadByName(name string) (spec, bool) {
	for _, w := range append(append([]spec(nil), workloads...), unlisted...) {
		if w.Name == name {
			return w, true
		}
	}
	return spec{}, false
}

// short shrinks a workload to a smoke-sized session that still runs every
// stage: fewer seeds and trips, a smaller library for big-graph and
// fleet-ingest, one set-up, and five repetitions of every stage and serve
// step, so that the traced run's span coverage compares medians of several
// milliseconds-long repetitions rather than one.
func (w spec) short() spec {
	w.Seeds = 2
	w.Scale /= 4
	switch w.Name {
	case "big-graph":
		w.Lib = 150
	case "fleet-ingest":
		w.Lib = 100
	}
	w.MinReps, w.MaxReps, w.IngestRounds, w.SetupReps = 5, 5, 5, 1
	return w
}

// params resolves the workload's program parameters.
func (w spec) params() (workload.Params, error) {
	p, ok := workload.ByName(w.Program)
	if !ok {
		return p, fmt.Errorf("sessionbench: no suite program %q", w.Program)
	}
	if w.Lib > 0 {
		p.LibClasses = w.Lib
	}
	return p.Scale(w.Scale), nil
}

// splitmix64 derives the workload's inputs from --seed.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// vmSeeds is the run's seed list: n VM seeds derived from the run seed.
func vmSeeds(seed uint64, n int) []uint64 {
	out := make([]uint64, n)
	for i := range out {
		out[i] = splitmix64(seed*0x100000001b3 + uint64(i))
	}
	return out
}

// budget is the wall time one stage may spend repeating, as a share of the
// run's --seconds.
type budget struct {
	total time.Duration
}

var stageShare = map[string]float64{
	"analyse": 0.15,
	"run":     0.10,
	"decode":  0.12,
	"extend":  0.20,
	"ingest":  0.20,
	"reads":   0.20,
	"restart": 0.15,
}

func (b budget) of(stage string) time.Duration {
	return time.Duration(float64(b.total) * stageShare[stage])
}

// repeat runs op until the stage's budget is spent, at least minReps and at
// most maxReps times, stopping at the first error.
func repeat(limit time.Duration, minReps, maxReps int, op func(rep int) error) error {
	start := time.Now()
	for rep := 0; rep < maxReps; rep++ {
		if rep >= minReps && time.Since(start) >= limit {
			return nil
		}
		if err := op(rep); err != nil {
			return err
		}
	}
	return nil
}
