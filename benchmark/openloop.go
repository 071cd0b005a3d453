package main

import (
	"fmt"
	"time"
)

// abortInflight is the in-flight count past which a rung cannot meet
// the latency limit: ten limits' worth of arrivals outstanding.
func abortInflight(rate float64) int64 {
	return int64(10*rate*latencyLimitMS/1000) + 64
}

// held reports whether a rung passes the capacity test: no query
// failed, p99 within the limit, and no growing backlog.
func held(r *rung) bool {
	if r.aborted {
		return false
	}
	for _, o := range r.outcomes {
		if o.failed {
			return false
		}
	}
	return pct(r.latencies(), 99) <= latencyLimitMS && r.keepsUp(drainLimit)
}

func printRungHeader() {
	fmt.Printf("%-8s %7s %7s %6s %8s %8s %8s %9s %6s %5s\n",
		"rung", "offered", "qps", "n", "p50 ms", "p99 ms", "lag50 ms", "lag99 ms", "infl", "held")
}

func printRung(label string, r *rung) {
	l := r.latencies()
	lags := r.lagsMS()
	fmt.Printf("%-8s %7.1f %7.1f %6d %8.2f %8.2f %8.2f %9.2f %6d %5v\n",
		label, r.rate, r.achievedQPS(), len(r.outcomes), pct(l, 50), pct(l, 99),
		pct(lags, 50), pct(lags, 99), r.inflightMax, held(r))
}

// openLoopTiers runs the three open-loop latency tiers and walks the
// capacity ladder, reporting lat_p50_ms/lat_p99_ms per tier,
// capacity_qps, and the generator's own figures per rung. It returns
// the mid tier's rung. The ladder walk stops once budget has passed.
func openLoopTiers(l *liveRunner, rep *report, budget time.Duration) *rung {
	start := time.Now()
	printRungHeader()
	tiers := []struct {
		name string
		k    int
	}{{"low", -4}, {"mid", midRung}, {"high", 0}}
	tierAt := map[int]*rung{}
	for _, t := range tiers {
		r := l.open(ladderRate(t.k), tierQueries)
		printRung(t.name, &r)
		lat := r.latencies()
		rep.set("lat_p50_ms."+t.name, "ms", pct(lat, 50))
		rep.set("lat_p99_ms."+t.name, "ms", pct(lat, 99))
		tierAt[t.k] = &r
	}
	// Capacity: walk the ladder from the high tier, upward until two
	// rungs in a row fail to hold (one noisy rung does not end the walk),
	// or downward to the first rung that holds.
	var best *rung
	bestK := 0
	if held(tierAt[0]) {
		best = tierAt[0]
		for k, misses := 1, 0; misses < 2 && time.Since(start) < budget; k++ {
			r := l.open(ladderRate(k), rungQueries)
			printRung(fmt.Sprintf("%+d", k), &r)
			if !held(&r) {
				misses++
				continue
			}
			best, bestK, misses = &r, k, 0
		}
	} else {
		for k := -1; k >= -4 && best == nil; k-- {
			r := tierAt[k]
			if r == nil {
				rr := l.open(ladderRate(k), rungQueries)
				printRung(fmt.Sprintf("%+d", k), &rr)
				r = &rr
			}
			if held(r) {
				best, bestK = r, k
			}
		}
	}
	capacity := 0.0
	if best != nil {
		capacity = best.achievedQPS()
		fmt.Printf("capacity: rung %+d (%.1f offered), %.1f achieved; p99 limit %.0f ms\n",
			bestK, ladderRate(bestK), capacity, latencyLimitMS)
	} else {
		fmt.Println("capacity: no rung of the ladder held")
	}
	rep.set("capacity_qps", "1/s", capacity)
	return tierAt[midRung]
}
