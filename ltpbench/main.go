// Command ltpbench is the LTP simulator's end-to-end benchmark. One run
// sets up one workload, measures it closed-loop for a fixed time,
// verifies every simulated result it produced, and prints its metrics
// as one JSON object on the last line of standard output.
//
//	go run . --workload cycle-mlp --seed 1 --seconds 10 --trace 0
//
// With --trace 1 the same run also times calls into every layer's
// public API and prints the per-layer metrics instead. See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
)

// defaultSeed is the workload seed a run uses when --seed is absent;
// heldOutSeed is the second seed the reference digests cover.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// config is one benchmark run's parameters.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// tmpRoot holds the run's scratch directories (result stores,
	// spans); it is created if absent.
	tmpRoot string
	// scale multiplies every instruction budget (1 = the benchmark;
	// tests shrink it).
	scale float64
	// setupReps is how many times set-up is repeated; setup_s is
	// their median.
	setupReps int
	// golden maps seed → op key → reference digest.
	golden map[int64]map[string]string
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	cfg := config{tmpRoot: ".bench_build/tmp", scale: 1, setupReps: 3, golden: goldenDigests()}
	flag.StringVar(&cfg.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	flag.Int64Var(&cfg.seed, "seed", defaultSeed, "workload seed")
	flag.Float64Var(&cfg.seconds, "seconds", 10, "measured seconds")
	traceFlag := flag.Int("trace", 0, "1 = traced run printing per-layer metrics")
	flag.Parse()
	cfg.trace = *traceFlag == 1
	if flag.NArg() > 0 || (*traceFlag != 0 && *traceFlag != 1) || cfg.seconds <= 0 {
		flag.Usage()
		os.Exit(2)
	}
	rep, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltpbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltpbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// printTable writes the metrics, sorted by name, one per line.
func printTable(ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %14.6g %-10s %s\n", n, ms[n].Value, ms[n].Unit, notes[n])
	}
}
