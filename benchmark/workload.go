package main

import (
	"math"
	"time"

	"cottage/internal/harness"
	"cottage/internal/rpc"
	"cottage/internal/trace"
)

// workload is one named traffic mix against one fleet.
type workload struct {
	name string
	spec fleetSpec
	// cottage sends through Aggregator.SearchCottage (predict round,
	// Algorithm 1, budgeted search); otherwise SearchExhaustive.
	cottage bool
}

// send issues one query through the workload's protocol.
func (w *workload) send(agg *rpc.Aggregator, terms []string) answer {
	var a answer
	if w.cottage {
		a.res, a.err = agg.SearchCottage(terms)
	} else {
		a.res, a.err = agg.SearchExhaustive(terms)
	}
	return a
}

// answer is what one live query returned.
type answer struct {
	res rpc.Result
	err error
}

var workloads = map[string]*workload{}

func init() {
	wiki := harness.QuickSetupConfig()
	lucene := harness.DefaultSetupConfig()
	for _, w := range []*workload{
		{
			// Every live layer: 16 predict legs (features + NN under
			// Server.mu), Algorithm 1, ~10 budgeted search legs, merge.
			name:    "live-cottage-wiki",
			spec:    fleetSpec{cfg: wiki, train: true, kind: trace.Wikipedia, pool: wiki.EvalQueries},
			cottage: true,
		},
		{
			// No predictor, no Algorithm 1: all 16 legs search the
			// paper-scale 48k-doc corpus, so search, index and merge carry
			// their largest share, and a predictor change must not move it.
			name:    "live-exhaustive-lucene",
			spec:    fleetSpec{cfg: lucene, kind: trace.Lucene, pool: 4000},
			cottage: false,
		},
	} {
		workloads[w.name] = w
	}
}

// The capacity ladder: rung k offers ladderBase·2^(k/4) queries/s. The
// base, the step and the limit are fixed once so the seed's capacity
// falls inside the ladder. The open-loop latency tiers are rungs -4
// (low), -2 (mid) and 0 (high).
const (
	ladderBase = 520.0
	// latencyLimitMS is the p99 a rung must meet to count as held.
	latencyLimitMS = 150.0
	// rungQueries is how many queries each capacity rung off the tiers
	// sends, and tierQueries each latency tier: p99 then has at least
	// ten samples beyond it.
	rungQueries = 1000
	tierQueries = 2000
	midRung     = -2
)

func ladderRate(k int) float64 { return ladderBase * math.Pow(2, float64(k)/4) }

// drainLimit is how long after its last arrival a held rung may still
// be completing queries.
const drainLimit = time.Duration(latencyLimitMS * float64(time.Millisecond))
