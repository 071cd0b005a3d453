package main

import (
	"fmt"
	"time"

	"cottage/internal/baselines"
	"cottage/internal/core"
	"cottage/internal/engine"
)

// twinSeconds is the least wall time the twin replays its pool for;
// replay_qps is the median repetition, and every repetition's summary
// must be identical.
const twinSeconds = 3.0

// twinResult is the virtual-time twin's view of a workload's pool.
type twinResult struct {
	qps   float64 // replayed queries per wall second (median repetition)
	cpuMS float64 // process CPU per replayed query, over all repetitions
	sum   engine.Summary
	check string // "ok", or what went wrong
}

// twinPolicy is the policy the twin replays a workload under: the one
// its live path runs.
func twinPolicy(w *workload) engine.Policy {
	if w.cottage {
		return core.NewCottage()
	}
	return baselines.Exhaustive{}
}

// twinReplay replays the workload's evaluated pool in virtual time
// under the workload's policy, at least three times and for at least
// twinSeconds. Call it only while no live query is in flight: the
// twin's Cottage shares the servers' predictors.
func twinReplay(f *fleet, w *workload) twinResult {
	evs := f.evals
	out := twinResult{check: "ok"}
	var qps []float64
	start, cpu0 := time.Now(), cpuTime()
	replayed := 0
	for i := 0; i < 3 || time.Since(start).Seconds() < twinSeconds; i++ {
		t0 := time.Now()
		r := f.eng.Run(twinPolicy(w), evs)
		qps = append(qps, float64(len(evs))/time.Since(t0).Seconds())
		replayed += len(evs)
		s := engine.Summarize(r)
		if i == 0 {
			out.sum = s
		} else if s != out.sum && out.check == "ok" {
			out.check = fmt.Sprintf("summary of repetition %d differs from the first", i+1)
		}
	}
	if !w.cottage && out.sum.MeanPAtK != 1 {
		out.check = fmt.Sprintf("exhaustive P@10 %.6f, want 1", out.sum.MeanPAtK)
	}
	out.qps = median(qps)
	out.cpuMS = (cpuTime() - cpu0).Seconds() * 1000 / float64(replayed)
	return out
}
