package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"cottage/internal/xrand"
)

// outcome is one query's record: which pool entry it sent, when it was
// due (open loop) or sent (closed loop), how late the open-loop
// generator dispatched it, when it completed, and what the system
// answered.
type outcome struct {
	query int
	due   time.Time
	lag   time.Duration // dispatch time minus due time
	lat   time.Duration // completion time minus due time
	ans   answer
	// failed is set by the caller's correctness check.
	failed bool
}

// rung is the result of one open-loop run at a fixed offered rate.
type rung struct {
	rate     float64 // offered queries per second
	outcomes []outcome
	wall     time.Duration // first due time to last completion
	span     time.Duration // first to last due time
	// inflightMax is the peak number of queries in flight; early and
	// late are the mean in-flight counts seen at dispatch over the
	// second and the last quarter of the schedule (the backlog test).
	inflightMax int64
	early, late float64
	// aborted marks a rung whose backlog passed the abort threshold:
	// dispatching stopped early and the rung failed.
	aborted bool
}

// poissonSchedule draws n arrival offsets of a Poisson process at rate
// queries per second, and the pool entry each arrival sends.
func poissonSchedule(rng *xrand.RNG, rate float64, n, pool int) ([]time.Duration, []int) {
	due := make([]time.Duration, n)
	pick := make([]int, n)
	t := 0.0
	for i := range due {
		t += rng.ExpFloat64() / rate
		due[i] = time.Duration(t * float64(time.Second))
		pick[i] = rng.Intn(pool)
	}
	return due, pick
}

// openLoop sends n queries at the given Poisson rate, each on its own
// goroutine the moment it is due, with no cap on the number in flight
// (a cap would turn the open loop into a closed one). Each latency is
// timed from the query's due time, so a stalled generator shows up as
// latency, and the generator's own lateness is recorded too. It
// returns once every dispatched query has completed. With abort > 0 it
// stops dispatching once that many queries are in flight: the backlog
// has already failed the rung, and draining more would only waste the
// run's time.
func openLoop(rng *xrand.RNG, rate float64, n, pool int, abort int64, send func(query int) answer) rung {
	due, pick := poissonSchedule(rng, rate, n, pool)
	r := rung{rate: rate, outcomes: make([]outcome, n)}
	var inflight atomic.Int64
	seen := make([]int64, n)
	var wg sync.WaitGroup
	start := time.Now()
	// The generator owns its OS thread and waits in nanosleep: the
	// runtime's timer wakes a sleeping goroutine up to a millisecond
	// late, which would be charged to the system as latency.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < n; i++ {
		dueAt := start.Add(due[i])
		if d := time.Until(dueAt); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			_ = syscall.Nanosleep(&ts, nil) // EINTR: dispatch a little early
		}
		if abort > 0 && inflight.Load() >= abort {
			r.aborted = true
			n = i
			break
		}
		seen[i] = inflight.Add(1)
		r.inflightMax = max(r.inflightMax, seen[i])
		lag := time.Since(dueAt)
		wg.Add(1)
		go func(i int, dueAt time.Time, lag time.Duration) {
			defer wg.Done()
			ans := send(pick[i])
			end := time.Now()
			inflight.Add(-1)
			r.outcomes[i] = outcome{query: pick[i], due: dueAt, lag: lag, lat: end.Sub(dueAt), ans: ans}
		}(i, dueAt, lag)
	}
	wg.Wait()
	r.outcomes, seen = r.outcomes[:n], seen[:n]
	var lastDone time.Time
	for _, o := range r.outcomes {
		if end := o.due.Add(o.lat); end.After(lastDone) {
			lastDone = end
		}
	}
	r.wall = lastDone.Sub(start) - due[0]
	r.span = due[n-1] - due[0]
	r.early = meanInt(seen[n/4 : n/2])
	r.late = meanInt(seen[3*n/4:])
	return r
}

func meanInt(xs []int64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += float64(x)
	}
	return s / float64(len(xs))
}

// latencies returns the rung's latencies in milliseconds, sorted.
func (r *rung) latencies() []float64 { return latenciesMS(r.outcomes) }

func latenciesMS(outs []outcome) []float64 {
	ms := make([]float64, len(outs))
	for i, o := range outs {
		ms[i] = float64(o.lat) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms
}

// phase is the result of one closed-loop run at fixed concurrency.
type phase struct {
	outcomes []outcome
	wall     time.Duration
	cpu      time.Duration // process CPU (user + system) over the phase
}

// closedLoop runs callers goroutines for d, each sending its next query
// the moment its previous one returns. Each caller draws its queries
// from its own stream split off rng, so the inputs follow the seed.
func closedLoop(rng *xrand.RNG, callers int, d time.Duration, pool int, send func(query int) answer) phase {
	var p phase
	per := make([][]outcome, callers)
	streams := make([]*xrand.RNG, callers)
	for c := range streams {
		streams[c] = rng.Split()
	}
	var wg sync.WaitGroup
	start, cpu0 := time.Now(), cpuTime()
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				q := streams[c].Intn(pool)
				t0 := time.Now()
				ans := send(q)
				per[c] = append(per[c], outcome{query: q, due: t0, lat: time.Since(t0), ans: ans})
			}
		}(c)
	}
	wg.Wait()
	p.wall, p.cpu = time.Since(start), cpuTime()-cpu0
	for _, outs := range per {
		p.outcomes = append(p.outcomes, outs...)
	}
	return p
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF and a valid pointer
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// achievedQPS is completions per second from the first due time to the
// last completion.
func (r *rung) achievedQPS() float64 {
	return float64(len(r.outcomes)) / r.wall.Seconds()
}

// keepsUp reports whether the system absorbed the rung's load: the last
// completion came within drain of the last due time (completions did
// not fall behind the offered rate), and the in-flight count was not
// still rising at the end: from the second to the last quarter of the
// schedule it grew by less than half a drain's worth of arrivals.
func (r *rung) keepsUp(drain time.Duration) bool {
	behind := r.wall - r.span
	growth := (r.late - r.early) / r.rate // seconds of added backlog
	return behind <= drain && growth <= drain.Seconds()/2
}

// pct returns the nearest-rank q-th percentile (0 < q <= 100) of sorted
// values, and 0 for none: a layer the workload's path never enters
// reports zero time.
func pct(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q/100*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median of unsorted values (copied, not mutated).
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// lagsMS returns the generator's dispatch lags in milliseconds, sorted.
func (r *rung) lagsMS() []float64 {
	ms := make([]float64, len(r.outcomes))
	for i, o := range r.outcomes {
		ms[i] = float64(o.lag) / float64(time.Millisecond)
	}
	sort.Float64s(ms)
	return ms
}
