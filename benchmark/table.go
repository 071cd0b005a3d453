package main

import (
	"fmt"
	"math"
	"strings"
	"time"

	"cottage/internal/obs"
	"cottage/internal/obs/anatomy"
)

// reconcileLimit is how far the named components may fall short of the
// traced end-to-end mean latency.
const reconcileLimit = 0.05

// compTable decomposes each traced query's latency, timed from its due
// time, into the generator's dispatch wait, the nine anatomy phases of
// its trace (anatomy.FromTrace), and the return to the generator.
type compTable struct {
	e2e, dispatch, ret []float64 // ms per query
	// launch is the search stage's start until its critical leg began:
	// goroutine start-up of the fan-out, which anatomy leaves in its
	// residual (PhaseOther); unattributed is what remains of it.
	launch, unattributed []float64
	phaseMS              [anatomy.NumPhases][]float64
}

func componentTable(r *rung, traces map[uint64]*obs.Trace) *compTable {
	t := &compTable{}
	for _, o := range r.outcomes {
		tr := traces[o.ans.res.TraceID]
		if tr == nil {
			continue
		}
		attr, ok := anatomy.FromTrace(tr)
		root := tr.Root()
		if !ok || root == nil {
			continue
		}
		e2e := float64(o.lat) / float64(time.Millisecond)
		dispatch := math.Max(0, float64(root.StartUS-o.due.UnixMicro())/1000)
		t.e2e = append(t.e2e, e2e)
		t.dispatch = append(t.dispatch, dispatch)
		t.ret = append(t.ret, math.Max(0, e2e-dispatch-attr.TotalMS))
		launch := math.Min(launchMS(tr, root), attr.Phase[anatomy.PhaseOther])
		t.launch = append(t.launch, launch)
		t.unattributed = append(t.unattributed, attr.Phase[anatomy.PhaseOther]-launch)
		for p := range attr.Phase {
			t.phaseMS[p] = append(t.phaseMS[p], attr.Phase[p])
		}
	}
	return t
}

// launchMS finds the search stage under root and its critical leg —
// the successful search.isn leg that ended last, as anatomy picks it —
// and returns the time from the stage's start to that leg's start.
func launchMS(tr *obs.Trace, root *obs.Span) float64 {
	var stage, crit *obs.Span
	for i := range tr.Spans {
		if sp := &tr.Spans[i]; sp.Parent == root.ID && sp.Name == "search" {
			stage = sp
		}
	}
	if stage == nil {
		return 0
	}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		if sp.Parent != stage.ID || sp.Name != "search.isn" || sp.Attrs["error"] != "" {
			continue
		}
		if crit == nil || sp.StartUS+sp.DurUS > crit.StartUS+crit.DurUS {
			crit = sp
		}
	}
	if crit == nil {
		return 0
	}
	return math.Max(0, float64(crit.StartUS-stage.StartUS)/1000)
}

// namedMS is the mean of everything but the unattributed residual.
func (t *compTable) namedMS() float64 {
	s := mean(t.dispatch) + mean(t.ret) + mean(t.launch)
	for p := anatomy.Phase(0); p < anatomy.NumPhases; p++ {
		if p != anatomy.PhaseOther {
			s += mean(t.phaseMS[p])
		}
	}
	return s
}

func (t *compTable) gap() float64 {
	e := mean(t.e2e)
	return math.Abs(e-t.namedMS()) / e
}

func (t *compTable) reconciles() bool { return len(t.e2e) > 0 && t.gap() <= reconcileLimit }

// layerOf names the modules behind each component.
var layerOf = map[string]string{
	"dispatch":        "benchmark generator + Go scheduler (due time to SearchCottage/SearchExhaustive entry)",
	"predict":         "rpc predict legs: features + nn + predict under Server.mu",
	"budget":          "core: Algorithm 1 (DetermineBudgetDegraded)",
	"admission-queue": "overload: server admission wait (no cap here)",
	"network":         "rpc: client lock wait + gob codec + loopback on the critical leg",
	"search":          "search/index/simdpack: service time + straggler wait",
	"fan-out launch":  "Go scheduler: search stage start to its critical leg's start",
	"merge":           "search.Merge",
	"hedge-wait":      "rpc: hedge timer (hedging off here)",
	"failover-retry":  "rpc: failed attempts before the answer",
	"return":          "Go scheduler: aggregator return to the generator",
	"other":           "unattributed residual inside the query span",
}

// print writes the component-timing table: each component's mean,
// share of the traced mean latency, and standard deviation.
func (t *compTable) print(workload string, overhead float64) {
	e := mean(t.e2e)
	fmt.Printf("\ncomponent timing, %s, traced mid tier (%d queries, mean %.3f ms from due time)\n",
		workload, len(t.e2e), e)
	fmt.Printf("| %-15s | %9s | %10s | %8s | %s |\n", "Component", "Time (ms)", "Percentage", "Std Dev", "Layer")
	fmt.Printf("|%s|%s|%s|%s|%s|\n", strings.Repeat("-", 17), strings.Repeat("-", 11),
		strings.Repeat("-", 12), strings.Repeat("-", 10), strings.Repeat("-", 7))
	row := func(name string, xs []float64) {
		fmt.Printf("| %-15s | %9.3f | %9.1f%% | %8.3f | %s |\n", name, mean(xs), 100*mean(xs)/e, stddev(xs), layerOf[name])
	}
	row("dispatch", t.dispatch)
	for p := anatomy.Phase(0); p < anatomy.NumPhases; p++ {
		if p != anatomy.PhaseOther {
			row(p.String(), t.phaseMS[p])
		}
	}
	row("fan-out launch", t.launch)
	row("return", t.ret)
	row("other", t.unattributed)
	verdict := "reconciles"
	if !t.reconciles() {
		verdict = "DOES NOT reconcile"
	}
	fmt.Printf("named components %.3f ms vs end-to-end mean %.3f ms: gap %.2f%%, %s (limit %.0f%%); obs.trace_overhead_frac %.4f\n\n",
		t.namedMS(), e, 100*t.gap(), verdict, 100*reconcileLimit, overhead)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func stddev(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	m := mean(xs)
	s := 0.0
	for _, x := range xs {
		s += (x - m) * (x - m)
	}
	return math.Sqrt(s / float64(len(xs)-1))
}
