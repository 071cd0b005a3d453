package main

import (
	"fmt"
	"runtime"
	"time"

	"cottage/internal/rpc"
	"cottage/internal/xrand"
)

// setupRepeats is how many times a run builds its fleet; setup_s is the
// median. Only the last build is kept and measured.
const setupRepeats = 3

// concurrencies are the closed-loop load levels of the end-to-end pass:
// one caller (no query waits for another), four, and sixteen (queries
// queue at every ISN's client lock; throughput saturates).
var concurrencies = []int{1, 4, 16}

// setUp builds the fleet setupRepeats times, tearing down all but the
// last, and returns it with the median set-up time. The first build is
// timed from process start.
func setUp(w *workload, seed uint64) (*fleet, float64, error) {
	var times []float64
	var f *fleet
	start := processStart
	for i := 0; i < setupRepeats; i++ {
		if f != nil {
			f.close()
			runtime.GC()
			start = time.Now()
		}
		var err error
		if f, err = buildFleet(w.spec, seed, false); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return f, median(times), nil
}

// heapMB is the Go heap in use after a forced GC, in MiB.
func heapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / (1 << 20)
}

// liveRunner drives one workload's queries against a fleet through one
// aggregator and judges every answer.
type liveRunner struct {
	w   *workload
	f   *fleet
	agg *rpc.Aggregator
	rng *xrand.RNG

	attempted, failed int
	pAt10Sum          float64
	cuts              int
}

func (l *liveRunner) send(q int) answer {
	return l.w.send(l.agg, l.f.evals[q].Query.Terms)
}

// judgeAll checks a batch of answers. faultFree says the aggregator's
// clients retried nothing while the batch ran, so a Cottage leg that
// is missing can only have missed its time budget.
func (l *liveRunner) judgeAll(outs []outcome, faultFree bool) {
	evs := l.f.evals
	for i := range outs {
		o := &outs[i]
		v := judge(l.w, evs[o.query], o.ans, faultFree)
		o.failed = v.failed
		l.attempted++
		if v.failed {
			l.failed++
		}
		if v.cut {
			l.cuts++
		}
		l.pAt10Sum += v.pAt10
	}
}

// closed runs one judged closed-loop phase.
func (l *liveRunner) closed(callers int, d time.Duration) phase {
	before := l.agg.Stats().Retries
	p := closedLoop(l.rng, callers, d, len(l.f.evals), l.send)
	l.judgeAll(p.outcomes, l.agg.Stats().Retries == before)
	return p
}

// open runs one judged open-loop rung of n queries at rate.
func (l *liveRunner) open(rate float64, n int) rung {
	before := l.agg.Stats().Retries
	r := openLoop(l.rng, rate, n, len(l.f.evals), abortInflight(rate), l.send)
	l.judgeAll(r.outcomes, l.agg.Stats().Retries == before)
	return r
}

// warmUp sends a second of four-caller traffic that is neither timed
// nor judged, so connections, gob type tables and caches are warm.
func (l *liveRunner) warmUp() {
	closedLoop(l.rng, 4, time.Second, len(l.f.evals), l.send)
}

// level is one closed-loop concurrency level's figures.
type level struct {
	callers       int
	qps           float64
	p50, p90, p99 float64 // ms
	cpuMS         float64 // process CPU per completed query
}

// closedLevels runs one judged closed-loop phase per concurrency level,
// splitting d evenly, and prints their figures.
func (l *liveRunner) closedLevels(d time.Duration) []level {
	fmt.Printf("%-8s %7s %7s %8s %8s %8s %12s\n", "callers", "n", "qps", "p50 ms", "p90 ms", "p99 ms", "cpu ms/query")
	var out []level
	for _, c := range concurrencies {
		p := l.closed(c, d/time.Duration(len(concurrencies)))
		lat := latenciesMS(p.outcomes)
		n := float64(len(p.outcomes))
		lv := level{callers: c, qps: n / p.wall.Seconds(), p50: pct(lat, 50), p90: pct(lat, 90), p99: pct(lat, 99),
			cpuMS: p.cpu.Seconds() * 1000 / n}
		fmt.Printf("%-8d %7d %7.1f %8.3f %8.3f %8.3f %12.4f\n", c, len(p.outcomes), lv.qps, lv.p50, lv.p90, lv.p99, lv.cpuMS)
		out = append(out, lv)
	}
	return out
}

// runEndToEnd is the untraced pass: set-up, the closed-loop phases, and
// the twin's replay of the same query pool. It reports only figures
// that repeat on a shared machine (see README.md): CPU time, quality,
// set-up time, heap, and the twin's virtual-time outputs.
func runEndToEnd(w *workload, seed uint64, seconds int) (*report, error) {
	f, setupS, err := setUp(w, seed)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rep := &report{Correct: true}
	rep.set("setup_s", "s", setupS)
	rep.set("heap_mb", "MiB", heapMB())

	l := &liveRunner{w: w, f: f, agg: f.agg, rng: xrand.New(seed).SplitName("callers")}
	l.warmUp()
	levels := l.closedLevels(time.Duration(seconds) * time.Second)
	rep.set("cpu_ms_per_query", "ms", levels[len(levels)-1].cpuMS)
	rep.set("p_at_10", "1", l.pAt10Sum/float64(l.attempted))

	tw := twinReplay(f, w)
	rep.set("replay_cpu_ms_per_query", "ms", tw.cpuMS)
	rep.set("twin_latency_ms", "ms", tw.sum.MeanLatency)
	rep.set("twin_p_at_10", "1", tw.sum.MeanPAtK)
	rep.set("twin_power_w", "W", tw.sum.AvgPowerW)

	rep.Attempted, rep.Failed = l.attempted, l.failed
	fmt.Printf("checked %d live answers: %d failed (fail_frac %.4f), %d Cottage budget cuts; twin replay %s\n",
		l.attempted, l.failed, float64(l.failed)/float64(l.attempted), l.cuts, tw.check)
	if l.failed > 0 || tw.check != "ok" {
		rep.Correct = false
	}
	return rep, nil
}
