package harness

import (
	"bytes"
	"runtime"
	"strings"
	"testing"

	"cottage/internal/core"
)

// TestAnatomyReconciliation pins the tentpole acceptance claim: per-phase
// attribution reconciles with end-to-end latency — the named phases cover
// at least 95% of the measured wall time on average across the replay.
func TestAnatomyReconciliation(t *testing.T) {
	s := testSetup(t)
	eng := anatomyEngine(s, 1, len(s.WikiEval))
	r := eng.Run(core.NewCottage(), s.WikiEval)
	rep := eng.Anatomy.Report()
	t.Logf("queries=%d meanCoverage=%.4f minCoverage=%.4f p99=%.2f owner=%s",
		rep.Queries, rep.MeanCoverage, rep.MinCoverage, rep.TotalP99MS, rep.TailOwner)
	if rep.Queries != uint64(len(r.Outcomes)) {
		t.Fatalf("attributed %d of %d queries", rep.Queries, len(r.Outcomes))
	}
	if rep.MeanCoverage < 0.95 {
		t.Errorf("named phases cover %.1f%% of latency on average, want >= 95%%",
			100*rep.MeanCoverage)
	}
	if rep.MinCoverage <= 0 {
		t.Errorf("min coverage %.4f — some query attributed nothing", rep.MinCoverage)
	}
	if rep.TailOwner == "" || rep.TailOwner == "other" {
		t.Errorf("tail owner = %q, want a named phase", rep.TailOwner)
	}
}

// TestAnatomyExperiment runs the full experiment once and checks the
// table shape, the p99-ownership lines, and the burn-rate paging demo:
// a latency target below the median must page both windows, flip the
// alert gauge to 2, and capture a non-empty flight-recorder dump.
func TestAnatomyExperiment(t *testing.T) {
	s := testSetup(t)
	var buf bytes.Buffer
	if err := Anatomy(s, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	t.Logf("\n%s", out)
	for _, want := range []string{
		"== cottage (", "== anytime-4ms (", "== cottage+hedge (",
		"admission-queue", "hedge-wait", "p99 owner:",
		"== slo burn-rate demo",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Count(out, "p99 owner:") != 3 {
		t.Errorf("want one owner line per variant:\n%s", out)
	}
	// The paging path demonstrably fired: state page, gauge 2, >= 1 page
	// on the latency objective, and the breach snapshot caught traces.
	latLine := ""
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "latency ") {
			latLine = line
		}
	}
	if !strings.Contains(latLine, "state=page") || !strings.Contains(latLine, "alert-gauge=2") {
		t.Errorf("latency objective did not page: %q", latLine)
	}
	if strings.Contains(latLine, "pages=0") {
		t.Errorf("latency objective recorded no page: %q", latLine)
	}
	if strings.Contains(out, "never paged") || strings.Contains(out, "dump at first page: 0 traces") {
		t.Errorf("flight-recorder dump missing or empty:\n%s", out)
	}
	if _, ok := ByID("anatomy"); !ok {
		t.Error("anatomy experiment not registered")
	}
}

// TestAnatomyDeterministic pins GOMAXPROCS-independence: the experiment's
// entire output (tables, owner lines, burn-rate demo) is byte-identical
// whether the runtime gets one P or many.
func TestAnatomyDeterministic(t *testing.T) {
	s := testSetup(t)
	run := func(procs int) string {
		prev := runtime.GOMAXPROCS(procs)
		defer runtime.GOMAXPROCS(prev)
		var buf bytes.Buffer
		if err := Anatomy(coldSetup(s), &buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := run(1), run(8)
	if a != b {
		t.Fatalf("output differs across GOMAXPROCS:\n--- procs=1 ---\n%s\n--- procs=8 ---\n%s", a, b)
	}
}
