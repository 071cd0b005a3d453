package main

import (
	"context"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"cottage/internal/baselines"
	"cottage/internal/engine"
	"cottage/internal/harness"
	"cottage/internal/index"
	"cottage/internal/obs"
	"cottage/internal/par"
	"cottage/internal/rpc"
	"cottage/internal/search"
	"cottage/internal/textgen"
	"cottage/internal/trace"
)

// Seed of the predictor training trace: the harness's own, so the
// trained models do not depend on the workload seed.
const trainTraceSeed = 101

// fleetSpec says what one workload builds at set-up.
type fleetSpec struct {
	cfg   harness.SetupConfig
	train bool
	// kind and pool are the query pool's trace kind and size; the pool
	// is generated from the workload seed and evaluated at set-up.
	kind trace.Kind
	pool int
}

// stepTimes is the set-up ledger, one entry per public step called.
type stepTimes struct {
	corpus, index, train, evaluate, fleet time.Duration
}

// fleet is everything a workload keeps resident after set-up: shards,
// models and ground truth, plus the live servers and their aggregator.
// Nothing set-up-only (corpus, training data) survives build.
type fleet struct {
	eng   *engine.Engine
	evals []*engine.Evaluated // the query pool with its ground truth
	rankS *baselines.RankS
	steps stepTimes

	servers []*rpc.Server
	clients []*rpc.Client
	agg     *rpc.Aggregator
	wire    *wireCounter // traced fleets only
	serving sync.WaitGroup
}

// buildFleet runs every set-up step. A traced fleet also counts the
// bytes each server reads and writes, gives each server an observer
// (it records spans only for traced requests), and builds the Rank-S
// baseline for the twin's policy set; none of that is in the step
// times.
func buildFleet(spec fleetSpec, seed uint64, traced bool) (*fleet, error) {
	cfg := spec.cfg
	f := &fleet{}

	t0 := time.Now()
	corpus := textgen.Generate(cfg.CorpusCfg)
	var train []trace.Query
	if spec.train {
		train = trace.Generate(corpus, trace.Config{Kind: trace.Wikipedia, Seed: trainTraceSeed,
			NumQueries: cfg.TrainQueries, QPS: cfg.QPS})
	}
	pool := trace.Generate(corpus, trace.Config{Kind: spec.kind, Seed: seed, NumQueries: spec.pool, QPS: cfg.QPS})
	f.steps.corpus = time.Since(t0)

	t0 = time.Now()
	alloc := corpus.AllocateTopical(cfg.EngineCfg.NumShards, cfg.HomeShards, cfg.Spill, cfg.AllocSeed)
	shards := make([]*index.Shard, len(alloc))
	par.For(len(alloc), func(si int) {
		b := index.NewBuilder(si, cfg.EngineCfg.BM25, cfg.EngineCfg.K)
		for _, id := range alloc[si] {
			d := &corpus.Docs[id]
			terms := make(map[string]int, len(d.Terms))
			for tid, tf := range d.Terms {
				terms[corpus.Vocab[tid]] = tf
			}
			b.Add(int64(id), terms, d.Length)
		}
		shards[si] = b.Finalize()
	})
	f.eng = engine.New(shards, cfg.EngineCfg)
	f.steps.index = time.Since(t0)
	if traced {
		f.rankS = baselines.NewRankS(corpus, alloc, cfg.EngineCfg.BM25, cfg.RankSCfg)
	}
	// Nothing below reads the corpus or the allocation, so neither stays
	// reachable once set-up returns.

	if spec.train {
		t0 = time.Now()
		// The harvested training dataset is set-up-only state: not kept.
		if _, err := f.eng.TrainFleet(train, cfg.PredictCfg); err != nil {
			return nil, err
		}
		f.steps.train = time.Since(t0)
	}

	t0 = time.Now()
	f.evals = f.eng.EvaluateAll(pool)
	f.steps.evaluate = time.Since(t0)

	t0 = time.Now()
	if traced {
		f.wire = &wireCounter{}
	}
	if err := f.startServers(traced); err != nil {
		f.close()
		return nil, err
	}
	f.steps.fleet = time.Since(t0)
	runtime.GC()
	return f, nil
}

// startServers serves each shard from its own loopback listener with
// the cottage-server defaults (MaxScore, no admission cap) and dials
// one client per ISN with the cottage-client defaults.
func (f *fleet) startServers(traced bool) error {
	for i, sh := range f.eng.Shards {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return fmt.Errorf("listen for ISN %d: %w", i, err)
		}
		srv := &rpc.Server{Shard: sh, Strategy: search.StrategyMaxScore}
		if f.eng.Fleet != nil {
			srv.Pred = f.eng.Fleet.Predictors[i]
		}
		if traced {
			srv.Obs = obs.NewObserver(1, 64)
		}
		f.servers = append(f.servers, srv)
		var ln net.Listener = l
		if f.wire != nil {
			ln = countingListener{Listener: l, c: f.wire}
		}
		f.serving.Add(1)
		go func() {
			defer f.serving.Done()
			_ = srv.Serve(ln) // returns nil after Shutdown
		}()
		c, err := rpc.Dial(l.Addr().String())
		if err != nil {
			return fmt.Errorf("dial ISN %d: %w", i, err)
		}
		c.SetTimeout(2 * time.Second)
		c.SetRetryPolicy(rpc.RetryPolicy{Max: 2})
		f.clients = append(f.clients, c)
	}
	f.agg = rpc.NewAggregator(f.clients, f.eng.K)
	f.agg.EnableBreakers(3, 500*time.Millisecond)
	return nil
}

// close stops the servers and waits until every Serve goroutine and
// connection handler has returned.
func (f *fleet) close() {
	for _, c := range f.clients {
		c.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, s := range f.servers {
		_ = s.Shutdown(ctx) // on timeout Shutdown force-closes the rest
	}
	f.serving.Wait()
	f.servers, f.clients, f.agg = nil, nil, nil
}

// wireCounter counts the bytes the servers read and write.
type wireCounter struct{ n atomic.Int64 }

type countingListener struct {
	net.Listener
	c *wireCounter
}

func (l countingListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countingConn{Conn: conn, c: l.c}, nil
}

type countingConn struct {
	net.Conn
	c *wireCounter
}

func (c countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.c.n.Add(int64(n))
	return n, err
}

func (c countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.c.n.Add(int64(n))
	return n, err
}
