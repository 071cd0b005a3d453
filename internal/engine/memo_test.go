package engine_test

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"cottage/internal/baselines"
	"cottage/internal/cluster"
	"cottage/internal/core"
	"cottage/internal/engine"
	"cottage/internal/obs"
	"cottage/internal/predict"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

// memoFixture is a small trained deployment for the memo tests.
type memoFixture struct {
	cfg    engine.Config
	eng    *engine.Engine
	corpus *textgen.Corpus
	alloc  [][]int
	train  []trace.Query
	ds     *predict.Dataset
	qs     []trace.Query
}

var (
	memoOnce sync.Once
	memoFix  *memoFixture
	memoErr  error
)

func getMemoFixture(tb testing.TB) *memoFixture {
	tb.Helper()
	memoOnce.Do(func() {
		ccfg := textgen.DefaultConfig()
		ccfg.NumDocs = 3000
		ccfg.VocabSize = 4000
		ccfg.NumTopics = 16
		ccfg.TopicTermCount = 120
		corpus := textgen.Generate(ccfg)
		cfg := engine.DefaultConfig()
		cfg.NumShards = 8
		f := &memoFixture{cfg: cfg, corpus: corpus}
		f.alloc = corpus.AllocateTopical(cfg.NumShards, 2, 0.15, 5)
		f.eng = engine.New(engine.BuildShards(corpus, cfg, 2, 0.15, 5), cfg)
		f.train = trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 11, NumQueries: 240, QPS: 10})
		pcfg := predict.DefaultConfig(cfg.K)
		pcfg.QualitySteps = 100
		pcfg.LatencySteps = 60
		f.ds, memoErr = f.eng.TrainFleet(f.train, pcfg)
		f.qs = trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: 3, NumQueries: 120, QPS: 40})
		memoFix = f
	})
	if memoErr != nil {
		tb.Fatal(memoErr)
	}
	return memoFix
}

// capture records every decision its policy makes.
type capture struct {
	engine.Policy
	decisions []engine.Decision
}

func (c *capture) Decide(e *engine.Engine, q trace.Query, nowMS float64) engine.Decision {
	d := c.Policy.Decide(e, q, nowMS)
	c.decisions = append(c.decisions, d)
	return d
}

// replay runs a fresh policy over evs with an observer attached, so
// Cottage's decisions carry their Algorithm 1 records.
func replay(e *engine.Engine, mk func() engine.Policy, evs []*engine.Evaluated) (engine.Summary, []engine.Decision) {
	e.Obs = obs.NewObserver(len(e.Shards), 16)
	defer func() { e.Obs = nil }()
	c := &capture{Policy: mk()}
	s := engine.Summarize(e.Run(c, evs))
	return s, c.decisions
}

// TestMemoReplayMatchesColdPool: every Fig. 10–15 policy, plus the SLA,
// QR and oracle baselines, replayed twice on one shared pool — whose
// memo earlier policies already filled — decides and summarizes exactly
// as on a freshly evaluated pool that computes everything cold.
func TestMemoReplayMatchesColdPool(t *testing.T) {
	f := getMemoFixture(t)
	shared := f.eng.EvaluateAll(f.qs)
	ranks := baselines.NewRankS(f.corpus, f.alloc, f.cfg.BM25, baselines.DefaultRankSConfig())
	qr, err := baselines.NewQR(f.eng, f.ds, f.train, baselines.DefaultQRConfig())
	if err != nil {
		t.Fatal(err)
	}
	oracle := core.NewCottageOracle(f.eng, shared)
	policies := []func() engine.Policy{
		func() engine.Policy { return baselines.Exhaustive{} },
		func() engine.Policy { return baselines.NewAggregation() },
		func() engine.Policy { return ranks },
		func() engine.Policy { return baselines.NewTaily() },
		func() engine.Policy { return qr },
		func() engine.Policy { return baselines.NewFixedSLA() },
		func() engine.Policy { return core.NewCottage() },
		func() engine.Policy { return core.NewCottageISN() },
		func() engine.Policy { return core.NewCottageNoML() },
		func() engine.Policy { return oracle },
	}
	for _, mk := range policies {
		name := mk().Name()
		coldSum, coldDec := replay(f.eng, mk, f.eng.EvaluateAll(f.qs))
		if name == "cottage" && !slices.ContainsFunc(coldDec, func(d engine.Decision) bool { return d.Record != nil }) {
			t.Fatal("cottage produced no decision records; the comparison is vacuous")
		}
		for rep := 1; rep <= 2; rep++ {
			sum, dec := replay(f.eng, mk, shared)
			if sum != coldSum {
				t.Errorf("%s replay %d: summary %+v, cold %+v", name, rep, sum, coldSum)
			}
			if !reflect.DeepEqual(dec, coldDec) {
				t.Errorf("%s replay %d: decisions differ from the cold pool's", name, rep)
			}
		}
	}
	for i, ev := range shared {
		if engine.MemoPredictions(ev) == nil || engine.MemoGamma(ev, f.eng.K) == nil {
			t.Fatalf("query %d: shared pool memo not filled", i)
		}
	}
}

// probe asks the engine for predictions (when it has a fleet) and Gamma
// estimates and keeps what it got; other, when set, is asked about
// instead of the replayed query.
type probe struct {
	other *trace.Query
	preds [][]predict.Prediction
	gamma [][]float64
}

func (*probe) Name() string    { return "probe" }
func (*probe) Observe(float64) {}
func (p *probe) Decide(e *engine.Engine, q trace.Query, _ float64) engine.Decision {
	if p.other != nil {
		q = *p.other
	}
	if e.Fleet != nil {
		p.preds = append(p.preds, e.Predictions(q))
	}
	p.gamma = append(p.gamma, e.GammaEstimate(q, e.K))
	d := engine.Decision{Participate: make([]bool, len(e.Shards)), BudgetMS: math.Inf(1)}
	for i := range d.Participate {
		d.Participate[i] = true
	}
	return d
}

// checkMemo asserts every query's memo holds what e computes directly.
func checkMemo(t *testing.T, e *engine.Engine, evs []*engine.Evaluated, what string) {
	t.Helper()
	for i, ev := range evs {
		if got, want := engine.MemoPredictions(ev), e.Fleet.PredictAll(e.Shards, ev.Query.Terms); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: query %d memoized predictions differ from PredictAll", what, i)
		}
		if got, want := engine.MemoGamma(ev, e.K), e.Gamma.Estimate(ev.Query.Terms, e.K); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: query %d memoized Gamma estimate differs from Estimate", what, i)
		}
	}
}

// TestMemoRecomputesOnSwap: the memo is keyed on what produced it, so
// a swapped fleet or Gamma mode recomputes, and an engine over the
// same shards and fleet reuses the stored values.
func TestMemoRecomputesOnSwap(t *testing.T) {
	f := getMemoFixture(t)
	e := f.eng
	evs := e.EvaluateAll(f.qs[:40])
	for _, ev := range evs {
		if engine.MemoPredictions(ev) != nil {
			t.Fatal("memo filled before any replay")
		}
	}
	e.Run(&probe{}, evs)
	checkMemo(t, e, evs, "first replay")
	first := engine.MemoPredictions(evs[0])
	e.Run(&probe{}, evs)
	if &engine.MemoPredictions(evs[0])[0] != &first[0] {
		t.Error("second replay recomputed predictions")
	}

	orig := e.Fleet
	defer func() { e.Fleet = orig }()
	swapped := &predict.Fleet{K: orig.K, Predictors: slices.Clone(orig.Predictors)}
	slices.Reverse(swapped.Predictors)
	e.Fleet = swapped
	e.Run(&probe{}, evs)
	checkMemo(t, e, evs, "swapped fleet")
	changed := false
	for _, ev := range evs {
		changed = changed || !reflect.DeepEqual(engine.MemoPredictions(ev), orig.PredictAll(e.Shards, ev.Query.Terms))
	}
	if !changed {
		t.Fatal("swapped fleet predicts like the original; the swap check is vacuous")
	}
	e.Fleet = orig
	e.Run(&probe{}, evs)
	checkMemo(t, e, evs, "restored fleet")

	defer func() { e.Gamma.Mode = predict.ModeTaily }()
	e.Gamma.Mode = predict.ModeUnion
	e.Run(&probe{}, evs)
	checkMemo(t, e, evs, "union mode")
	taily := &predict.GammaEstimator{Shards: e.Shards}
	changed = false
	for _, ev := range evs {
		changed = changed || !reflect.DeepEqual(engine.MemoGamma(ev, e.K), taily.Estimate(ev.Query.Terms, e.K))
	}
	if !changed {
		t.Fatal("union mode estimates like Taily mode; the swap check is vacuous")
	}
	e.Gamma.Mode = predict.ModeTaily

	// A second engine over the same shards and fleet — what the harness
	// builds for replication and anatomy sweeps — reuses the memo.
	e.Run(&probe{}, evs)
	kept := engine.MemoPredictions(evs[0])
	e2 := engine.New(e.Shards, f.cfg)
	e2.Fleet = e.Fleet
	e2.Run(&probe{}, evs)
	if &engine.MemoPredictions(evs[0])[0] != &kept[0] {
		t.Error("an engine over the same shards and fleet recomputed predictions")
	}
	checkMemo(t, e2, evs, "second engine")
}

// TestMemoSharedByCopies: copies of an Evaluated (the arrival-rescaled
// clones load sweeps replay) share one memo, since arrival time never
// enters a prediction.
func TestMemoSharedByCopies(t *testing.T) {
	f := getMemoFixture(t)
	evs := f.eng.EvaluateAll(f.qs[:20])
	clones := make([]*engine.Evaluated, len(evs))
	for i, ev := range evs {
		c := *ev
		c.Query.ArrivalMS /= 2
		clones[i] = &c
	}
	f.eng.Run(&probe{}, clones)
	for i, ev := range evs {
		orig, clone := engine.MemoPredictions(ev), engine.MemoPredictions(clones[i])
		if orig == nil || &orig[0] != &clone[0] {
			t.Fatalf("query %d: the clone's memo is not the original's", i)
		}
	}
}

// TestPredictionsOutsideReplay: outside Run, or for a query other than
// the one being replayed, the accessors compute directly and leave the
// memo alone.
func TestPredictionsOutsideReplay(t *testing.T) {
	f := getMemoFixture(t)
	e := f.eng
	q := f.qs[5]
	if !reflect.DeepEqual(e.Predictions(q), e.Fleet.PredictAll(e.Shards, q.Terms)) {
		t.Error("Predictions outside Run differs from PredictAll")
	}
	if !reflect.DeepEqual(e.GammaEstimate(q, e.K), e.Gamma.Estimate(q.Terms, e.K)) {
		t.Error("GammaEstimate outside Run differs from Estimate")
	}
	evs := e.EvaluateAll(f.qs[:3])
	p := &probe{other: &q}
	e.Run(p, evs)
	for i, ev := range evs {
		if engine.MemoPredictions(ev) != nil || engine.MemoGamma(ev, e.K) != nil {
			t.Fatalf("query %d: asking about another query filled the replayed query's memo", i)
		}
		if !reflect.DeepEqual(p.preds[i], e.Fleet.PredictAll(e.Shards, q.Terms)) {
			t.Fatalf("query %d: predictions for the other query are wrong", i)
		}
	}
}

// TestMemoConcurrentReplays replays one pool from three engines at once
// — one predicting, two estimating under different Gamma modes, so the
// Gamma entry is re-keyed under contention — and checks each against a
// sequential replay of a fresh pool. Run under -race.
func TestMemoConcurrentReplays(t *testing.T) {
	f := getMemoFixture(t)
	qs := f.qs[:40]
	engines := make([]*engine.Engine, 3)
	for i := range engines {
		engines[i] = engine.New(f.eng.Shards, f.cfg)
	}
	engines[0].Fleet = f.eng.Fleet
	engines[2].Gamma.Mode = predict.ModeUnion
	run := func(e *engine.Engine, evs []*engine.Evaluated) *probe {
		p := &probe{}
		e.Run(p, evs)
		return p
	}
	want := make([]*probe, len(engines))
	for i, e := range engines {
		want[i] = run(e, f.eng.EvaluateAll(qs))
	}
	shared := f.eng.EvaluateAll(qs)
	got := make([]*probe, len(engines))
	var wg sync.WaitGroup
	for i, e := range engines {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got[i] = run(e, shared)
			}
		}()
	}
	wg.Wait()
	for i := range engines {
		if !reflect.DeepEqual(got[i].gamma, want[i].gamma) {
			t.Errorf("engine %d: concurrent Gamma estimates differ from sequential", i)
		}
	}
	if !reflect.DeepEqual(got[0].preds, want[0].preds) {
		t.Error("concurrent predictions differ from sequential")
	}
}

// TestRecordsScoreRawCycles: the decision records of the ablation and
// oracle variants, like Cottage's, score the predictor's unmargined
// cycle estimate — PredServiceMS is the raw service time at the
// assigned frequency, not the 1.5x-margined one Algorithm 1 plans with.
func TestRecordsScoreRawCycles(t *testing.T) {
	f := getMemoFixture(t)
	e := f.eng
	evs := e.EvaluateAll(f.qs)
	oracle := core.NewCottageOracle(e, evs)
	for _, mk := range []func() engine.Policy{
		func() engine.Policy { return core.NewCottage() },
		func() engine.Policy { return core.NewCottageNoML() },
		func() engine.Policy { return oracle },
	} {
		name := mk().Name()
		_, decs := replay(e, mk, evs)
		checked := 0
		for qi, d := range decs {
			if d.Record == nil {
				t.Fatalf("%s: query %d has no decision record", name, qi)
			}
			preds := e.Fleet.PredictAll(e.Shards, evs[qi].Query.Terms)
			for _, rr := range d.Record.Reports {
				want := cluster.ServiceMS(preds[rr.ISN].Cycles, rr.FreqGHz)
				if math.Abs(rr.PredServiceMS-want) > 1e-9*want {
					t.Fatalf("%s: query %d ISN %d PredServiceMS %v, want unmargined %v",
						name, qi, rr.ISN, rr.PredServiceMS, want)
				}
				checked++
			}
		}
		if checked == 0 {
			t.Fatalf("%s: no reports checked", name)
		}
	}
}
