package engine

import (
	"slices"
	"sync"

	"cottage/internal/index"
	"cottage/internal/predict"
	"cottage/internal/trace"
)

// estimates memoizes one query's policy-independent estimates: the
// fleet's per-ISN predictions and the Gamma estimator's per-shard
// contributions at each requested k. Like Evaluated.PerShard they depend
// only on (query, fleet or estimator, shards), so a pool replayed under
// many policies computes them once. Filling is lazy — the first replay
// that asks pays, and policies that never predict cost nothing — and
// every entry remembers what produced it: a different fleet, shard set
// or Gamma mode recomputes instead of serving a stale value. The mutex
// makes one Evaluated safe to replay from several engines at once.
type estimates struct {
	mu sync.Mutex

	fleet      *predict.Fleet
	predShards []*index.Shard
	preds      []predict.Prediction

	gammaShards []*index.Shard
	gammaMode   predict.GammaMode
	gamma       []gammaAtK
}

type gammaAtK struct {
	k   int
	est []float64
}

func (m *estimates) predictions(f *predict.Fleet, shards []*index.Shard, terms []string) []predict.Prediction {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.preds == nil || m.fleet != f || !slices.Equal(m.predShards, shards) {
		m.preds = f.PredictAll(shards, terms)
		m.fleet, m.predShards = f, slices.Clone(shards)
	}
	return m.preds
}

func (m *estimates) gammaEstimate(g *predict.GammaEstimator, terms []string, k int) []float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.gammaMode != g.Mode || !slices.Equal(m.gammaShards, g.Shards) {
		m.gamma = m.gamma[:0]
		m.gammaMode, m.gammaShards = g.Mode, slices.Clone(g.Shards)
	}
	for _, e := range m.gamma {
		if e.k == k {
			return e.est
		}
	}
	est := g.Estimate(terms, k)
	m.gamma = append(m.gamma, gammaAtK{k, est})
	return est
}

// replayed returns the memo of the query Run is replaying when q is that
// query, nil otherwise.
func (e *Engine) replayed(q trace.Query) *estimates {
	ev := e.replaying
	if ev == nil || ev.est == nil || ev.Query.ID != q.ID || !slices.Equal(ev.Query.Terms, q.Terms) {
		return nil
	}
	return ev.est
}

// Predictions returns the fleet's per-ISN predictions for q (step 2 of
// the protocol). During Run they come from the replayed query's memo;
// outside Run they are computed directly. The slice is shared: callers
// must not modify it.
func (e *Engine) Predictions(q trace.Query) []predict.Prediction {
	if m := e.replayed(q); m != nil {
		return m.predictions(e.Fleet, e.Shards, q.Terms)
	}
	return e.Fleet.PredictAll(e.Shards, q.Terms)
}

// GammaEstimate returns e.Gamma.Estimate(q.Terms, k), memoized on the
// replayed query like Predictions. The slice is shared: callers must not
// modify it.
func (e *Engine) GammaEstimate(q trace.Query, k int) []float64 {
	if m := e.replayed(q); m != nil {
		return m.gammaEstimate(e.Gamma, q.Terms, k)
	}
	return e.Gamma.Estimate(q.Terms, k)
}
