package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"time"

	"cottage/internal/baselines"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/features"
	"cottage/internal/obs"
	"cottage/internal/obs/anatomy"
	"cottage/internal/rpc"
	"cottage/internal/search"
	"cottage/internal/xrand"
)

// directQueries is how many pool queries the direct layer timings use.
const directQueries = 400

// traceDir is where the traced run writes its spans (JSONL), inside the
// build directory the benchmark already owns.
const traceDir = ".bench_build/traces"

// runTraced is the per-layer pass. It builds one traced fleet and runs
// the open-loop tiers and capacity ladder untraced (the mid tier is the
// baseline for the tracing overhead, and the source of the generator
// and search-work metrics). It then runs the mid tier again with an
// observer and an anatomy collector on a second aggregator over the
// same clients, and finally times direct calls into each layer's
// public functions on the workload's own queries.
func runTraced(w *workload, seed uint64, seconds int) (*report, error) {
	f, err := buildFleet(w.spec, seed, true)
	if err != nil {
		return nil, err
	}
	defer f.close()
	rep := &report{Correct: true}
	rep.set("setup.corpus_s", "s", f.steps.corpus.Seconds())
	rep.set("setup.index_s", "s", f.steps.index.Seconds())
	rep.set("setup.train_s", "s", f.steps.train.Seconds())
	rep.set("setup.evaluate_s", "s", f.steps.evaluate.Seconds())
	rep.set("setup.fleet_s", "s", f.steps.fleet.Seconds())

	l := &liveRunner{w: w, f: f, agg: f.agg, rng: xrand.New(seed).SplitName("arrivals")}
	l.warmUp()

	// Untraced open-loop tiers and capacity ladder.
	rt := readRuntime(false)
	before := l.attempted
	base := openLoopTiers(l, rep, time.Duration(seconds)*time.Second)
	rt = readRuntime(true).minus(rt)
	q := float64(l.attempted - before)
	baseP50 := pct(base.latencies(), 50)
	rep.set("loadgen.lag_p99_ms", "ms", pct(base.lagsMS(), 99))
	rep.set("loadgen.achieved_qps", "1/s", base.achievedQPS())
	rep.set("loadgen.inflight_max", "count", float64(base.inflightMax))
	rep.set("go.gc_cycles_per_kquery", "count", rt.gcCycles/q*1000)
	rep.set("go.gc_cpu_frac", "1", rt.gcCPU/rt.totalCPU)
	rep.set("go.alloc_bytes_per_query", "B", rt.allocBytes/q)
	searchWork(w, f, base, rep)

	// Closed-loop levels: wall-clock latency and throughput.
	for _, lv := range l.closedLevels(time.Duration(seconds) * time.Second) {
		rep.set(fmt.Sprintf("lat_p50_ms.c%d", lv.callers), "ms", lv.p50)
		rep.set(fmt.Sprintf("lat_p99_ms.c%d", lv.callers), "ms", lv.p99)
		if lv.callers == concurrencies[len(concurrencies)-1] {
			rep.set(fmt.Sprintf("throughput_qps.c%d", lv.callers), "1/s", lv.qps)
		}
	}

	// Traced mid tier, on its own aggregator so the untraced one never
	// had an observer.
	tagg := rpc.NewAggregator(f.clients, f.eng.K)
	tagg.EnableBreakers(3, 500*time.Millisecond)
	tagg.Obs = obs.NewObserver(len(f.clients), tierQueries)
	tagg.Anatomy = anatomy.NewCollector(1024)
	tl := &liveRunner{w: w, f: f, agg: tagg, rng: l.rng}
	wire0 := f.wire.n.Load()
	tr := tl.open(ladderRate(midRung), tierQueries)
	wire := f.wire.n.Load() - wire0
	printRung("traced", &tr)
	rep.set("rpc.bytes_per_query", "B", float64(wire)/float64(len(tr.outcomes)))
	tracedP50 := pct(tr.latencies(), 50)
	rep.set("obs.trace_overhead_frac", "1", tracedP50/baseP50-1)

	traces := map[uint64]*obs.Trace{}
	for _, t := range tagg.Obs.Traces.Recent(0) {
		traces[t.ID] = t
	}
	legs := legStats(traces)
	for _, name := range []string{"predict", "search"} {
		ms := legs.leg[name]
		rep.set("rpc."+name+"_leg_ms.p50", "ms", pct(ms, 50))
		rep.set("rpc."+name+"_leg_ms.p99", "ms", pct(ms, 99))
	}
	rep.set("rpc.wire_us.p50", "us", pct(legs.wire, 50))
	rep.set("rpc.wire_us.p99", "us", pct(legs.wire, 99))
	rep.set("rpc.serve_predict_us.p50", "us", pct(legs.serve["predict"], 50))
	rep.set("rpc.serve_search_us.p50", "us", pct(legs.serve["search"], 50))
	rep.set("rpc.serve_search_us.p99", "us", pct(legs.serve["search"], 99))
	stats := f.agg.Stats()
	tstats := tagg.Stats()
	// Retries are per client, so either aggregator's ledger holds all.
	rep.set("rpc.retries", "count", float64(stats.Retries))
	rep.set("rpc.hedges", "count", float64(stats.Hedges+tstats.Hedges))

	tab := componentTable(&tr, traces)
	for _, p := range []anatomy.Phase{anatomy.PhasePredict, anatomy.PhaseBudget, anatomy.PhaseNetwork,
		anatomy.PhaseSearch, anatomy.PhaseMerge, anatomy.PhaseOther} {
		ms := append([]float64(nil), tab.phaseMS[p]...)
		sort.Float64s(ms)
		rep.set("anatomy."+p.String()+"_ms.p50", "ms", pct(ms, 50))
		rep.set("anatomy."+p.String()+"_ms.p99", "ms", pct(ms, 99))
	}
	tab.print(w.name, tracedP50/baseP50-1)
	if err := writeTraces(tagg.Obs, w.name, seed); err != nil {
		return nil, err
	}

	// Direct calls, with no live query in flight (the predictors are
	// shared with the servers and are single-threaded).
	directLayers(w, f, rep)
	if err := codec(w, f, rep); err != nil {
		return nil, err
	}
	rep.set("rpc.ping_rtt_us.p50", "us", pingRTT(f))
	policies := twinLayers(f, rep)
	tw := twinReplay(f, w)
	rep.set("replay_qps", "1/s", tw.qps)

	rep.Attempted, rep.Failed = l.attempted+tl.attempted, l.failed+tl.failed
	rep.set("fail_frac", "1", float64(rep.Failed)/float64(rep.Attempted))
	if rep.Failed > 0 || tw.check != "ok" || policies != "ok" {
		rep.Correct = false
	}
	fmt.Printf("checked %d live answers: %d failed; twin replay %s; policy set %s\n",
		rep.Attempted, rep.Failed, tw.check, policies)
	return rep, nil
}

// runtimeSample is a snapshot of the Go runtime counters the traced
// run reports.
type runtimeSample struct {
	gcCycles, gcCPU, totalCPU, allocBytes float64
}

var runtimeMetrics = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime snapshots the runtime counters around a phase. The CPU
// classes advance only when a collection ends, so each snapshot forces
// one: before reading anything at the start, and after reading the
// cycle and allocation counters at the end, so neither forced
// collection is counted as the phase's own (the end one's CPU is).
func readRuntime(end bool) runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetrics))
	for i, name := range runtimeMetrics {
		s[i].Name = name
	}
	if !end {
		runtime.GC()
	}
	metrics.Read(s[:2])
	if end {
		runtime.GC()
	}
	metrics.Read(s[2:])
	return runtimeSample{gcCycles: float64(s[0].Value.Uint64()), allocBytes: float64(s[1].Value.Uint64()),
		gcCPU: s[2].Value.Float64(), totalCPU: s[3].Value.Float64()}
}

func (a runtimeSample) minus(b runtimeSample) runtimeSample {
	return runtimeSample{a.gcCycles - b.gcCycles, a.gcCPU - b.gcCPU, a.totalCPU - b.totalCPU, a.allocBytes - b.allocBytes}
}

// searchWork reports the search work each live query of the rung
// caused (from the ground-truth per-shard stats of the shards it
// searched) and the merge cost of its shard lists.
func searchWork(w *workload, f *fleet, r *rung, rep *report) {
	evs := f.evals
	k := w.spec.cfg.EngineCfg.K
	var postings, docs, selected, cut float64
	var mergeNS time.Duration
	for _, o := range r.outcomes {
		ev := evs[o.query]
		shards := o.ans.res.Selected
		lists := make([][]search.Hit, 0, len(shards))
		for _, s := range shards {
			postings += float64(ev.PerShard[s].Stats.PostingsTraversed)
			docs += float64(ev.PerShard[s].Stats.DocsScored)
			lists = append(lists, ev.PerShard[s].Hits)
		}
		selected += float64(len(shards))
		cut += float64(len(o.ans.res.Cut))
		t0 := time.Now()
		search.Merge(k, lists...)
		mergeNS += time.Since(t0)
	}
	n := float64(len(r.outcomes))
	isns := float64(len(f.eng.Shards))
	rep.set("search.postings_per_query", "count", postings/n)
	rep.set("search.docs_scored_per_query", "count", docs/n)
	rep.set("search.merge_us", "us", float64(mergeNS.Nanoseconds())/1000/n)
	rep.set("core.selected_frac", "1", selected/n/isns)
	rep.set("core.cut_frac", "1", cut/n/isns)
}

// legs collects per-leg timings from the traced spans: each predict.isn
// and search.isn leg, the grafted serve span under it, and the leg
// minus its serve span (client lock wait, codec and loopback).
type legs struct {
	leg   map[string][]float64 // ms, by verb
	serve map[string][]float64 // µs, by verb
	wire  []float64            // µs, both verbs
}

func legStats(traces map[uint64]*obs.Trace) legs {
	out := legs{leg: map[string][]float64{}, serve: map[string][]float64{}}
	for _, t := range traces {
		serveOf := map[uint64]*obs.Span{}
		for i := range t.Spans {
			if sp := &t.Spans[i]; strings.HasPrefix(sp.Name, "serve.") {
				serveOf[sp.Parent] = sp
			}
		}
		for i := range t.Spans {
			sp := &t.Spans[i]
			verb, ok := strings.CutSuffix(sp.Name, ".isn")
			if !ok {
				continue
			}
			out.leg[verb] = append(out.leg[verb], float64(sp.DurUS)/1000)
			if sv := serveOf[sp.ID]; sv != nil {
				out.serve[verb] = append(out.serve[verb], float64(sv.DurUS))
				out.wire = append(out.wire, float64(sp.DurUS-sv.DurUS))
			}
		}
	}
	for _, m := range []map[string][]float64{out.leg, out.serve} {
		for _, v := range m {
			sort.Float64s(v)
		}
	}
	sort.Float64s(out.wire)
	return out
}

// writeTraces writes the traced rung's spans as JSONL, oldest first.
// encoding/json rejects non-finite floats, so a trace whose decision
// record carries an infinite budget (Algorithm 1 found no candidate)
// cannot be encoded; it is skipped and counted.
func writeTraces(o *obs.Observer, workload string, seed uint64) error {
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	var buf bytes.Buffer
	traces := o.Traces.Recent(0)
	skipped := 0
	for i := len(traces) - 1; i >= 0; i-- {
		line, err := json.Marshal(traces[i])
		if err != nil {
			skipped++
			continue
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("spans: %s (%d traces; %d with non-finite values not encodable)\n", path, len(traces)-skipped, skipped)
	return nil
}

// directLayers times direct calls into the predict-side layers and the
// per-shard evaluator on the workload's own queries. Layers the
// workload's live path never calls report 0 per query.
func directLayers(w *workload, f *fleet, rep *report) {
	evs := f.evals[:min(directQueries, len(f.evals))]
	n := float64(len(evs))
	var extract, predictT, budget time.Duration
	matched := 0
	if w.cottage {
		fl := f.eng.Fleet
		policy := core.NewCottage()
		for _, ev := range evs {
			for i, sh := range f.eng.Shards {
				t0 := time.Now()
				features.Extract(sh, ev.Query.Terms)
				t1 := time.Now()
				p := fl.Predictors[i].Predict(sh, ev.Query.Terms)
				extract += t1.Sub(t0)
				predictT += time.Since(t1)
				if p.Matched {
					matched++
				}
			}
			reports := policy.Reports(f.eng, ev.Query, 0)
			t0 := time.Now()
			core.DetermineBudgetDegraded(reports, 0, f.eng.Cluster.Ladder, core.BudgetOptions{}, core.DegradedExclude)
			budget += time.Since(t0)
		}
	}
	isns := float64(len(f.eng.Shards))
	rep.set("features.extract_us", "us", float64(extract.Nanoseconds())/1000/n)
	rep.set("predict.predict_us", "us", float64(predictT.Nanoseconds())/1000/n)
	rep.set("predict.matched_frac", "1", float64(matched)/n/isns)
	rep.set("core.budget_us", "us", float64(budget.Nanoseconds())/1000/n)

	var eval []float64
	k := w.spec.cfg.EngineCfg.K
	for _, ev := range evs {
		for _, sh := range f.eng.Shards {
			t0 := time.Now()
			search.Eval(search.StrategyMaxScore, sh, ev.Query.Terms, k)
			eval = append(eval, float64(time.Since(t0).Nanoseconds())/1000)
		}
	}
	sort.Float64s(eval)
	rep.set("search.eval_us.p50", "us", pct(eval, 50))
	rep.set("search.eval_us.p99", "us", pct(eval, 99))

	var bytes, postings int
	for _, sh := range f.eng.Shards {
		bytes += sh.PackedPostingBytes()
		postings += sh.NumPostings()
	}
	rep.set("index.bytes_per_posting", "B", float64(bytes)/float64(postings))
}

// codec times gob encoding plus rpc.DecodeRequest/DecodeResponse on the
// workload's own messages: one request and one response per leg its
// live path sends. A persistent encoder/decoder pair keeps gob's type
// descriptors out of the steady state, as on a live connection.
func codec(w *workload, f *fleet, rep *report) error {
	evs := f.evals[:min(directQueries, len(f.evals))]
	var reqs []rpc.Request
	var resps []rpc.Response
	k := w.spec.cfg.EngineCfg.K
	for _, ev := range evs {
		for s := range f.eng.Shards {
			reqs = append(reqs, rpc.Request{Kind: rpc.KindSearch, Terms: ev.Query.Terms, K: k, DeadlineUS: 3000})
			resps = append(resps, rpc.Response{Hits: ev.PerShard[s].Hits, Stats: ev.PerShard[s].Stats})
			if w.cottage {
				reqs = append(reqs, rpc.Request{Kind: rpc.KindPredict, Terms: ev.Query.Terms})
				p := f.eng.Fleet.Predictors[s].Predict(f.eng.Shards[s], ev.Query.Terms)
				resps = append(resps, rpc.Response{Pred: p})
			}
		}
	}
	var buf bytes.Buffer
	enc, dec := gob.NewEncoder(&buf), gob.NewDecoder(&buf)
	timeEach := func(n int, one func(i int) error) (float64, error) {
		if err := one(0); err != nil { // type descriptors travel once per connection
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			if err := one(i); err != nil {
				return 0, err
			}
		}
		return float64(time.Since(t0).Nanoseconds()) / 1000 / float64(n), nil
	}
	reqUS, err := timeEach(len(reqs), func(i int) error {
		if err := enc.Encode(&reqs[i]); err != nil {
			return err
		}
		_, err := rpc.DecodeRequest(dec)
		return err
	})
	if err != nil {
		return fmt.Errorf("request codec: %w", err)
	}
	respUS, err := timeEach(len(resps), func(i int) error {
		if err := enc.Encode(&resps[i]); err != nil {
			return err
		}
		_, err := rpc.DecodeResponse(dec)
		return err
	})
	if err != nil {
		return fmt.Errorf("response codec: %w", err)
	}
	rep.set("rpc.codec_request_us", "us", reqUS)
	rep.set("rpc.codec_response_us", "us", respUS)
	return nil
}

// pingRTT is the median serial KindPing round trip over every client.
func pingRTT(f *fleet) float64 {
	var rtt []float64
	for i := 0; i < 100; i++ {
		for _, c := range f.clients {
			t0 := time.Now()
			if err := c.Ping(); err != nil {
				continue
			}
			rtt = append(rtt, float64(time.Since(t0).Nanoseconds())/1000)
		}
	}
	sort.Float64s(rtt)
	return pct(rtt, 50)
}

// twinLayers replays the pool twice under each policy of the Fig. 10–15
// sets, with fresh policy state each time, and times Fleet.PredictAll
// directly. Both replays of a policy must summarize identically, and
// exhaustive P@10 must be 1; it returns "ok" or what went wrong.
// Policies that need trained predictors report 0 on a workload
// without them.
func twinLayers(f *fleet, rep *report) string {
	evs := f.evals
	n := float64(len(evs))
	policies := []func() engine.Policy{
		func() engine.Policy { return baselines.Exhaustive{} },
		func() engine.Policy { return baselines.NewAggregation() },
		func() engine.Policy { return f.rankS },
		func() engine.Policy { return baselines.NewTaily() },
		func() engine.Policy { return core.NewCottage() },
		func() engine.Policy { return core.NewCottageNoML() },
		func() engine.Policy { return core.NewCottageISN() },
	}
	check := "ok"
	var cottageWall time.Duration
	for _, policy := range policies {
		name := policy().Name()
		us := 0.0
		if f.eng.Fleet != nil || !strings.HasPrefix(name, "cottage") {
			var wall time.Duration
			var first engine.Summary
			for i := 0; i < 2; i++ {
				t0 := time.Now()
				s := engine.Summarize(f.eng.Run(policy(), evs))
				wall += time.Since(t0)
				if i == 0 {
					first = s
				} else if s != first && check == "ok" {
					check = name + ": two replays summarize differently"
				}
			}
			if name == "exhaustive" && first.MeanPAtK != 1 && check == "ok" {
				check = fmt.Sprintf("exhaustive P@10 %.6f, want 1", first.MeanPAtK)
			}
			wall /= 2
			if name == "cottage" {
				cottageWall = wall
			}
			us = float64(wall.Nanoseconds()) / 1000 / n
		}
		rep.set("engine.replay_us_per_query."+name, "us", us)
	}
	share := 0.0
	if f.eng.Fleet != nil {
		t0 := time.Now()
		for _, ev := range evs {
			f.eng.Fleet.PredictAll(f.eng.Shards, ev.Query.Terms)
		}
		share = time.Since(t0).Seconds() / cottageWall.Seconds()
	}
	rep.set("engine.predictall_share", "1", share)
	return check
}
