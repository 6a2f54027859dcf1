// Command apiary-bench regenerates every table and figure in
// EXPERIMENTS.md. Run it with no flags for the full suite, or select
// experiments with -exp.
//
//	apiary-bench                    # run everything
//	apiary-bench -exp e4,e5         # just the latency/energy comparison
//	apiary-bench -list              # list experiment IDs
//	apiary-bench -json BENCH.json   # also write results as JSON
//	apiary-bench -compare old.json new.json
//	                                # diff two -json files; exit 1 if any
//	                                # numeric cell moved more than 10%
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"apiary/internal/bench"
)

// jsonResult is one experiment's table plus its wall-clock runtime, as
// written by -json.
type jsonResult struct {
	bench.Result
	Seconds float64 `json:"seconds"`
}

func main() {
	exp := flag.String("exp", "all", "comma-separated experiment IDs (e1..e13) or 'all'")
	list := flag.Bool("list", false, "list experiments and exit")
	jsonPath := flag.String("json", "", "write results as JSON to this file")
	compare := flag.String("compare", "", "baseline -json file; compare against the new-results file given as the positional argument")
	flag.Parse()

	if *compare != "" {
		if flag.NArg() != 1 {
			fmt.Fprintln(os.Stderr, "usage: apiary-bench -compare old.json new.json")
			os.Exit(2)
		}
		os.Exit(runCompare(*compare, flag.Arg(0)))
	}

	if *list {
		for _, e := range bench.All {
			fmt.Printf("%-4s %s\n", e.ID, e.Title)
		}
		return
	}

	var ids []string
	if *exp == "all" {
		for _, e := range bench.All {
			ids = append(ids, e.ID)
		}
	} else {
		ids = strings.Split(*exp, ",")
	}

	var results []jsonResult
	for _, id := range ids {
		e, ok := bench.ByID(strings.TrimSpace(id))
		if !ok {
			fmt.Fprintf(os.Stderr, "apiary-bench: unknown experiment %q (try -list)\n", id)
			os.Exit(1)
		}
		start := time.Now()
		res := e.Run()
		elapsed := time.Since(start).Seconds()
		fmt.Print(res.String())
		fmt.Printf("(%s in %.1fs)\n\n", e.ID, elapsed)
		results = append(results, jsonResult{Result: res, Seconds: elapsed})
	}

	if *jsonPath != "" {
		data, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "apiary-bench: encode json: %v\n", err)
			os.Exit(1)
		}
		data = append(data, '\n')
		if err := os.WriteFile(*jsonPath, data, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "apiary-bench: write %s: %v\n", *jsonPath, err)
			os.Exit(1)
		}
		fmt.Printf("wrote %s (%d experiments)\n", *jsonPath, len(results))
	}
}
