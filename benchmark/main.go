// Command benchmark is the repository benchmark: it builds a 16-ISN
// Cottage fleet in-process (one rpc.Server per shard on a loopback
// listener, one aggregator over dialed clients), drives one named
// workload against it open-loop, checks every answer against ground
// truth, and prints the end-to-end metrics — or, with -trace 1, the
// per-layer metrics — as the last line of standard output. README.md
// in this directory defines every metric and workload.
//
//	bash benchmark/run.sh --workload live-cottage-wiki --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// processStart anchors setup_s: process start to first timed query.
var processStart = time.Now()

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *report) set(name, unit string, v float64) {
	if r.Metrics == nil {
		r.Metrics = make(map[string]metric)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	name := flag.String("workload", "", "workload name (see README.md)")
	seed := flag.Uint64("seed", 1, "workload seed: drives the query traces and the arrival schedule")
	seconds := flag.Int("seconds", 30, "measurement time per run, in seconds")
	traced := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end pass")
	flag.Parse()

	w, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: -workload %v -seed N -seconds S -trace 0|1\n", names)
		os.Exit(2)
	}
	fmt.Fprintf(os.Stderr, "benchmark: workload %s seed %d seconds %d trace %d GOMAXPROCS %d\n",
		w.name, *seed, *seconds, *traced, runtime.GOMAXPROCS(0))

	var rep *report
	var err error
	if *traced == 1 {
		rep, err = runTraced(w, *seed, *seconds)
	} else {
		rep, err = runEndToEnd(w, *seed, *seconds)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchmark: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
