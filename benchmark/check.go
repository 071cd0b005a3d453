package main

import (
	"cottage/internal/engine"
	"cottage/internal/search"
)

// verdict classifies one live answer against the ground truth computed
// at set-up.
type verdict struct {
	failed bool    // errored, lost a leg to a fault, or wrong hits
	pAt10  float64 // overlap of the live top-K with the ground truth
	cut    bool    // lost a Cottage search leg to its time budget
}

// judge checks one answer. Exhaustive answers must equal the ground
// truth top-K bit for bit, with every leg answering. A Cottage answer
// must equal search.Merge over the ground-truth per-shard results of
// the shards that were selected and answered: a selected shard whose
// leg missed Algorithm 1's budget is the designed straggler cut, not a
// failure, provided no transport fault happened (faultFree). Its cost
// shows in p_at_10.
func judge(w *workload, ev *engine.Evaluated, a answer, faultFree bool) verdict {
	if a.err != nil {
		return verdict{failed: true}
	}
	res := a.res
	v := verdict{pAt10: 1}
	if len(ev.TopK) > 0 {
		v.pAt10 = float64(search.Overlap(res.Hits, ev.TopKSet)) / float64(len(ev.TopK))
	}
	if !w.cottage {
		v.failed = len(res.Failed) > 0 || !sameHits(res.Hits, ev.TopK)
		return v
	}
	if len(res.Truncated) > 0 || (len(res.Failed) > 0 && !faultFree) {
		v.failed = true
		return v
	}
	lost := make(map[int]bool, len(res.Failed))
	for _, s := range res.Failed {
		lost[s] = true
	}
	lists := make([][]search.Hit, 0, len(res.Selected))
	for _, s := range res.Selected {
		if lost[s] {
			v.cut = true
			continue
		}
		lists = append(lists, ev.PerShard[s].Hits)
	}
	v.failed = !sameHits(res.Hits, search.Merge(w.spec.cfg.EngineCfg.K, lists...))
	return v
}

func sameHits(a, b []search.Hit) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
