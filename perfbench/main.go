// Command perfbench is Apiary's performance ledger: it runs named open-loop
// scenarios through the public load harness (ParseScenario → NewBoardRun /
// NewFleetRun → RunScenario), checks every run's client-visible outputs,
// and prints one JSON object of metrics as its last line of output.
//
//	perfbench --workload board-knee --seed 1 --seconds 30 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured untraced. --trace 1
// makes a separate traced run (spans on, CPU and heap profiles, per-epoch
// and snapshot timings) and reports per-layer metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	wname := flag.String("workload", "", "workload name: board-knee, board-sparse or fleet16")
	seed := flag.Uint64("seed", 1, "workload seed, written into the scenario text")
	seconds := flag.Int("seconds", 30, "host seconds to measure for")
	traceOn := flag.Int("trace", 0, "1 for the traced per-layer run, 0 for end-to-end metrics")
	flag.Parse()
	w, err := findWorkload(*wname)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	if *seconds < 1 || (*traceOn != 0 && *traceOn != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	b := &bench{w: w, text: w.scenario(*seed), budget: time.Duration(*seconds) * time.Second}
	var vals map[string]float64
	units := endToEnd
	if *traceOn == 1 {
		vals, err = b.traced()
		units = perLayer
	} else {
		vals, err = b.untraced()
	}
	var res result
	if err == nil {
		res.Metrics, err = withUnits(vals, units)
	}
	// A run is one boot-and-drain of the scenario; a failed check fails
	// the run it happened on and ends the invocation.
	res.Attempted, res.Correct = b.runs, err == nil
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		res.Failed = 1
		res.Attempted = max(res.Attempted, 1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err) // a NaN or infinite metric
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// median returns the middle value of xs (the mean of the middle two for an
// even count); xs is reordered.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}
