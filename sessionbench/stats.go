package main

import (
	"fmt"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// cpuTime is the CPU time (user + system) the benchmark's own process has
// used so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// stopwatch measures one operation's wall time and the process CPU time
// (user + system, every thread) it used.
type stopwatch struct {
	t0  time.Time
	cpu time.Duration
}

func startWatch() stopwatch { return stopwatch{t0: time.Now(), cpu: cpuTime()} }

// stop returns the wall and CPU milliseconds since start.
func (w stopwatch) stop() (wallMs, cpuMs float64) {
	return ms(time.Since(w.t0)), ms(cpuTime() - w.cpu)
}

// heapSampler tracks the peak Go heap in use (bytes of live and
// not-yet-swept heap objects) by sampling runtime/metrics, a read that
// does not stop the world.
type heapSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	mu   sync.Mutex
	peak uint64
	// stages records, per pipeline stage in the order entered, the heap
	// left live when it began and the peak while it ran.
	stages []stageHeap
}

type stageHeap struct {
	name        string
	entry, peak uint64
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.done.Add(1)
	go func() {
		defer h.done.Done()
		tick := time.NewTicker(every)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: heapMetric}}
		for {
			metrics.Read(sample)
			h.note(sample[0].Value.Uint64())
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

func (h *heapSampler) note(v uint64) {
	h.mu.Lock()
	h.peak = max(h.peak, v)
	if n := len(h.stages); n > 0 {
		h.stages[n-1].peak = max(h.stages[n-1].peak, v)
	}
	h.mu.Unlock()
}

// enter starts attributing samples to stage, after a collection, so that
// the heap left live at entry is what the earlier stages hold on to.
func (h *heapSampler) enter(stage string) {
	settleGC()
	sample := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(sample)
	v := sample[0].Value.Uint64()
	h.mu.Lock()
	h.stages = append(h.stages, stageHeap{name: stage, entry: v, peak: v})
	h.mu.Unlock()
}

// byStage renders each stage's live-at-entry and peak heap in MB, and
// names the stage that set the run's peak.
func (h *heapSampler) byStage() string {
	h.mu.Lock()
	defer h.mu.Unlock()
	var b strings.Builder
	top := ""
	var most uint64
	for _, st := range h.stages {
		fmt.Fprintf(&b, " %s %.1f/%.1f", st.name, float64(st.entry)/(1<<20), float64(st.peak)/(1<<20))
		if st.peak > most {
			top, most = st.name, st.peak
		}
	}
	return fmt.Sprintf("heap MB live at entry/peak by stage:%s; the peak is set in %s", b.String(), top)
}

// finish stops the sampler, waits for it, and returns the peak in bytes.
func (h *heapSampler) finish() uint64 {
	close(h.stop)
	h.done.Wait()
	return h.peak
}

// memCounters is a cheap reading of the runtime's cumulative allocation and
// GC counters.
type memCounters struct {
	allocBytes uint64
	gcCycles   uint64
}

func readMem() memCounters {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	return memCounters{allocBytes: s[0].Value.Uint64(), gcCycles: s[1].Value.Uint64()}
}

func (m memCounters) since(prev memCounters) memCounters {
	return memCounters{allocBytes: m.allocBytes - prev.allocBytes, gcCycles: m.gcCycles - prev.gcCycles}
}

// settleGC runs a collection between stages so that one stage's garbage is
// not collected on the next stage's clock.
func settleGC() { runtime.GC() }
