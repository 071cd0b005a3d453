package engine

import "cottage/internal/predict"

// MemoPredictions returns ev's memoized predictions (nil before a replay
// asked for them), for the external memo tests.
func MemoPredictions(ev *Evaluated) []predict.Prediction {
	ev.est.mu.Lock()
	defer ev.est.mu.Unlock()
	return ev.est.preds
}

// MemoGamma returns ev's memoized Gamma estimate at k, or nil.
func MemoGamma(ev *Evaluated, k int) []float64 {
	ev.est.mu.Lock()
	defer ev.est.mu.Unlock()
	for _, g := range ev.est.gamma {
		if g.k == k {
			return g.est
		}
	}
	return nil
}
