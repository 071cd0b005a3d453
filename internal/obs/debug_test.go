// Debug-endpoint coverage lives in an external test package so it can
// mount the anatomy and slo handlers the way the binaries do — those
// packages import obs, so an internal test would be an import cycle.
package obs_test

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"cottage/internal/obs"
	"cottage/internal/obs/anatomy"
	"cottage/internal/obs/slo"
)

// testObserver builds an observer holding one recorded trace.
func testObserver() *obs.Observer {
	o := obs.NewObserver(2, 8)
	o.Flight = obs.NewFlightRecorder(2, 2, 0)
	tb := obs.NewTraceBuilder(1000)
	root := tb.StartSpan("query", 0, 1000)
	root.End(2000)
	o.AddTrace(tb.Finish())
	return o
}

func get(t *testing.T, mux http.Handler, path string) *httptest.ResponseRecorder {
	t.Helper()
	rr := httptest.NewRecorder()
	mux.ServeHTTP(rr, httptest.NewRequest("GET", path, nil))
	return rr
}

func TestDebugMuxEndpoints(t *testing.T) {
	o := testObserver()
	anat := anatomy.NewCollector(16)
	anat.Observe(anatomy.Attribution{TraceID: 5, TotalMS: 1,
		Phase: [anatomy.NumPhases]float64{anatomy.PhaseSearch: 1}})
	mon := slo.New(slo.Config{})
	mon.Objective("latency", 0.01)
	mux := obs.NewDebugMux(o,
		obs.Endpoint{Path: "/debug/anatomy", Handler: anatomy.Handler(anat)},
		obs.Endpoint{Path: "/debug/slo", Handler: slo.Handler(mon)},
	)

	t.Run("healthz", func(t *testing.T) {
		rr := get(t, mux, "/healthz")
		if rr.Code != 200 || !strings.HasPrefix(rr.Header().Get("Content-Type"), "text/plain") {
			t.Fatalf("code=%d ct=%q", rr.Code, rr.Header().Get("Content-Type"))
		}
		if strings.TrimSpace(rr.Body.String()) != "ok" {
			t.Errorf("body %q", rr.Body.String())
		}
	})

	t.Run("metrics", func(t *testing.T) {
		rr := get(t, mux, "/metrics")
		if rr.Code != 200 || !strings.HasPrefix(rr.Header().Get("Content-Type"), "text/plain") {
			t.Fatalf("code=%d ct=%q", rr.Code, rr.Header().Get("Content-Type"))
		}
		if !strings.Contains(rr.Body.String(), "cottage_trace_spans_dropped_total") {
			t.Error("scrape missing span-drop counter")
		}
	})

	t.Run("traces", func(t *testing.T) {
		rr := get(t, mux, "/debug/traces")
		if rr.Code != 200 || rr.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("code=%d ct=%q", rr.Code, rr.Header().Get("Content-Type"))
		}
		var traces []*obs.Trace
		if err := json.Unmarshal(rr.Body.Bytes(), &traces); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if len(traces) != 1 || len(traces[0].Spans) != 1 || traces[0].Spans[0].Name != "query" {
			t.Fatalf("traces %+v", traces)
		}
		// ?n= caps the count; jsonl switches content type.
		if rr := get(t, mux, "/debug/traces?n=0"); rr.Code != 200 {
			t.Errorf("n=0 code %d", rr.Code)
		}
		rr = get(t, mux, "/debug/traces?format=jsonl")
		if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("jsonl ct %q", ct)
		}
	})

	t.Run("accuracy", func(t *testing.T) {
		rr := get(t, mux, "/debug/accuracy")
		if rr.Code != 200 || rr.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("code=%d ct=%q", rr.Code, rr.Header().Get("Content-Type"))
		}
		var snap []obs.ISNAccuracy
		if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if len(snap) != 2 {
			t.Errorf("accuracy slots = %d, want 2", len(snap))
		}
	})

	t.Run("flight", func(t *testing.T) {
		rr := get(t, mux, "/debug/flight")
		if rr.Code != 200 || rr.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("code=%d ct=%q", rr.Code, rr.Header().Get("Content-Type"))
		}
		var snap obs.FlightSnapshot
		if err := json.Unmarshal(rr.Body.Bytes(), &snap); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if snap.Added != 1 || len(snap.Slowest) != 1 {
			t.Fatalf("snapshot %+v", snap)
		}
		rr = get(t, mux, "/debug/flight?format=jsonl")
		if ct := rr.Header().Get("Content-Type"); ct != "application/x-ndjson" {
			t.Errorf("jsonl ct %q", ct)
		}
	})

	t.Run("anatomy-extra", func(t *testing.T) {
		rr := get(t, mux, "/debug/anatomy")
		if rr.Code != 200 || rr.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("code=%d ct=%q", rr.Code, rr.Header().Get("Content-Type"))
		}
		var rep anatomy.Report
		if err := json.Unmarshal(rr.Body.Bytes(), &rep); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if rep.Window != 1 {
			t.Errorf("window = %d", rep.Window)
		}
	})

	t.Run("slo-extra", func(t *testing.T) {
		rr := get(t, mux, "/debug/slo")
		if rr.Code != 200 || rr.Header().Get("Content-Type") != "application/json" {
			t.Fatalf("code=%d ct=%q", rr.Code, rr.Header().Get("Content-Type"))
		}
		var snaps []slo.Snapshot
		if err := json.Unmarshal(rr.Body.Bytes(), &snaps); err != nil {
			t.Fatalf("bad JSON: %v", err)
		}
		if len(snaps) != 1 || snaps[0].Name != "latency" {
			t.Fatalf("snapshots %+v", snaps)
		}
	})
}

func TestDebugMuxNilObserver(t *testing.T) {
	mux := obs.NewDebugMux(nil)
	for _, path := range []string{"/metrics", "/healthz", "/debug/traces", "/debug/accuracy", "/debug/flight"} {
		if rr := get(t, mux, path); rr.Code != 200 {
			t.Errorf("%s with nil observer: code %d", path, rr.Code)
		}
	}
}

func TestStartDebugRegistersRuntimeMetrics(t *testing.T) {
	o := obs.NewObserver(1, 4)
	d, err := obs.StartDebug("127.0.0.1:0", o)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	resp, err := http.Get("http://" + d.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"cottage_go_goroutines",
		"cottage_go_heap_inuse_bytes",
		"cottage_go_gc_pause_p99_ms",
		"cottage_go_gc_total",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("scrape missing runtime gauge %q", want)
		}
	}
}

// TestUnboundedBudgetExports runs a trace whose decision record has an
// infinite budget (Algorithm 1 kept no candidate) through every export
// path — Recorder.WriteJSONL, FlightRecorder.WriteJSONL, DumpFile and
// the /debug/traces and /debug/flight endpoints — between two ordinary
// traces. Every path must emit all three and decode the budget back to
// +Inf; encoding/json alone refuses +Inf and would abort the dump.
func TestUnboundedBudgetExports(t *testing.T) {
	o := obs.NewObserver(2, 8)
	o.Flight = obs.NewFlightRecorder(4, 4, 0)
	budgets := []float64{12.5, math.Inf(1), 3}
	for i, b := range budgets {
		tb := obs.NewTraceBuilder(int64(1000 * (i + 1)))
		root := tb.StartSpan("query", 0, int64(1000*(i+1)))
		bs := tb.StartSpan("budget", root.ID(), int64(1000*(i+1)))
		bs.SetDecision(&obs.DecisionRecord{BudgetMS: b, BudgetISN: -1})
		bs.End(int64(1000 * (i + 1)))
		root.End(int64(1000*(i+1) + 100*(i+1)))
		o.AddTrace(tb.Finish())
	}
	// decoded collects the budgets of the traces a dump carries, sorted
	// so the flight recorder's slow-first order compares equal.
	decoded := func(traces []*obs.Trace) []float64 {
		var got []float64
		for _, tr := range traces {
			got = append(got, tr.Find("budget").Decision.BudgetMS)
		}
		slices.Sort(got)
		return got
	}
	want := slices.Clone(budgets)
	slices.Sort(want)
	check := func(path string, traces []*obs.Trace) {
		t.Helper()
		if got := decoded(traces); !slices.Equal(got, want) {
			t.Errorf("%s: budgets %v, want %v", path, got, want)
		}
	}
	jsonl := func(path string, body string, flight bool) []*obs.Trace {
		t.Helper()
		var out []*obs.Trace
		for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
			var fl struct{ Trace *obs.Trace }
			var tr obs.Trace
			var err error
			if flight {
				err = json.Unmarshal([]byte(line), &fl)
			} else {
				err = json.Unmarshal([]byte(line), &tr)
				fl.Trace = &tr
			}
			if err != nil {
				t.Fatalf("%s: bad line %q: %v", path, line, err)
			}
			out = append(out, fl.Trace)
		}
		return out
	}

	var buf strings.Builder
	if err := o.Traces.WriteJSONL(&buf); err != nil {
		t.Fatalf("Recorder.WriteJSONL: %v", err)
	}
	if !strings.Contains(buf.String(), `"budget_ms":null,"budget_unbounded":true`) {
		t.Errorf("Recorder.WriteJSONL: no explicit unbounded budget in %s", buf.String())
	}
	check("Recorder.WriteJSONL", jsonl("Recorder.WriteJSONL", buf.String(), false))

	buf.Reset()
	if n, err := o.Flight.WriteJSONL(&buf); err != nil || n != len(budgets) {
		t.Fatalf("FlightRecorder.WriteJSONL: %d lines, %v", n, err)
	}
	check("FlightRecorder.WriteJSONL", jsonl("FlightRecorder.WriteJSONL", buf.String(), true))

	path := filepath.Join(t.TempDir(), "flight.jsonl")
	if n, err := o.Flight.DumpFile(path); err != nil || n != len(budgets) {
		t.Fatalf("DumpFile: %d lines, %v", n, err)
	}
	dump, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	check("DumpFile", jsonl("DumpFile", string(dump), true))

	mux := obs.NewDebugMux(o)
	var traces []*obs.Trace
	if err := json.Unmarshal(get(t, mux, "/debug/traces").Body.Bytes(), &traces); err != nil {
		t.Fatalf("/debug/traces: %v", err)
	}
	check("/debug/traces", traces)
	check("/debug/traces?format=jsonl", jsonl("/debug/traces?format=jsonl",
		get(t, mux, "/debug/traces?format=jsonl").Body.String(), false))
	var snap obs.FlightSnapshot
	if err := json.Unmarshal(get(t, mux, "/debug/flight").Body.Bytes(), &snap); err != nil {
		t.Fatalf("/debug/flight: %v", err)
	}
	check("/debug/flight", append(snap.Slowest, snap.Reservoir...))
	check("/debug/flight?format=jsonl", jsonl("/debug/flight?format=jsonl",
		get(t, mux, "/debug/flight?format=jsonl").Body.String(), true))
}
