// Command ltpexperiments regenerates the paper's tables and figures
// (DESIGN.md §4 lists the experiment index). Output goes to stdout and,
// with -out, to a text file per experiment.
//
// Examples:
//
//	ltpexperiments -exp table1
//	ltpexperiments -exp fig6 -insts 300000 -warm 100000
//	ltpexperiments -exp all -quick        # small budgets, ~minutes
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"ltp"
	"ltp/internal/experiment"
)

func main() {
	var (
		exp     = flag.String("exp", "all", "experiment: table1, groups, fig1, fig3, fig6, fig7, fig10, fig11, uit, ablation, wibvsltp, dram, microarch, matrix, triage, snapshot, diff, all")
		scale   = flag.Float64("scale", 1.0, "workload working-set scale (0..1]")
		warm    = flag.Uint64("warm", 100_000, "warm-up instructions per run")
		insts   = flag.Uint64("insts", 300_000, "detailed instructions per run")
		quick   = flag.Bool("quick", false, "small budgets for a fast smoke campaign")
		warmMd  = flag.String("warmmode", "fast", "warm-up mode: fast (functional) or detailed (full pipeline)")
		outDir  = flag.String("out", "", "directory for per-experiment .txt outputs")
		par     = flag.Int("parallel", 0, "max concurrent simulations (0 = NumCPU)")
		seeds   = flag.Int("seeds", 3, "matrix: seed replicates per scenario x config cell")
		scns    = flag.String("scenarios", "", "matrix: comma-separated scenario families (empty = all)")
		backend = flag.String("backend", "", "execution backend for every run: cycle (default), sampled (checkpointed intervals) or model (fast estimates; oracle experiments need cycle)")
		intvls  = flag.Int("intervals", 0, "sampled backend: measured interval count K per run (0 = default)")
		triageK = flag.Int("triage", 3, "triage: cells re-run cycle-accurately after the model pre-pass (-exp triage)")
		storeF  = flag.String("store", "", "persistent result-store file: snapshot/diff read it, and diff banks fresh results in it")
		maniF   = flag.String("manifest", "", "diff: snapshot manifest file to diff against (default: the -store file's current keys)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile of the campaign to this file (go tool pprof)")
		memProf = flag.String("memprofile", "", "write an allocation profile to this file at exit (go tool pprof)")
	)
	flag.Parse()

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ltpexperiments:", err)
			os.Exit(2)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ltpexperiments:", err)
			os.Exit(2)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProf != "" {
		defer func() {
			f, err := os.Create(*memProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ltpexperiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live heap before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "ltpexperiments:", err)
			}
		}()
	}

	wm, err := ltp.ParseWarmMode(*warmMd)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltpexperiments:", err)
		os.Exit(2)
	}

	s := experiment.NewSuite(*scale, *warm, *insts)
	if *quick {
		s = experiment.QuickSuite()
		s.Quiet = false
	}
	s.WarmMode = wm
	s.Backend = *backend
	s.Intervals = *intvls
	// One engine runs every figure: -parallel caps its pool, and its
	// cache serves the baselines figures share.
	engine, err := ltp.NewEngine(ltp.EngineConfig{Parallelism: *par})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ltpexperiments:", err)
		os.Exit(2)
	}
	defer engine.Close()
	s.Engine = engine

	emit := func(name, content string) {
		fmt.Println(content)
		if *outDir != "" {
			if err := os.MkdirAll(*outDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			path := filepath.Join(*outDir, name+".txt")
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	joinTables := func(ts []*experiment.Table) string {
		var b strings.Builder
		for _, t := range ts {
			b.WriteString(t.String())
			b.WriteByte('\n')
		}
		return b.String()
	}

	run := map[string]func(){
		"table1":    func() { emit("table1", experiment.Table1()) },
		"groups":    func() { emit("groups", s.GroupsTable().String()) },
		"fig1":      func() { emit("fig1", joinTables(s.Fig1())) },
		"fig3":      func() { emit("fig3", s.Fig3().String()) },
		"fig6":      func() { emit("fig6", joinTables(s.Fig6())) },
		"fig7":      func() { emit("fig7", joinTables(s.Fig7())) },
		"fig10":     func() { emit("fig10", joinTables(s.Fig10())) },
		"fig11":     func() { emit("fig11", joinTables(s.Fig11())) },
		"uit":       func() { emit("uit", s.UITSweep().String()) },
		"ablation":  func() { emit("ablation", s.Ablation().String()) },
		"wibvsltp":  func() { emit("wibvsltp", joinTables(s.WIBvsLTP())) },
		"dram":      func() { emit("dram", s.DRAMModelStudy().String()) },
		"microarch": func() { emit("microarch", joinTables(s.Microarch())) },
		"matrix": func() {
			var list []string
			if *scns != "" {
				for _, s := range strings.Split(*scns, ",") {
					list = append(list, strings.TrimSpace(s))
				}
			}
			tab, err := s.Matrix(list, *seeds)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ltpexperiments:", err)
				os.Exit(1)
			}
			emit("matrix", tab.String())
		},
		"triage": func() {
			var list []string
			if *scns != "" {
				for _, s := range strings.Split(*scns, ",") {
					list = append(list, strings.TrimSpace(s))
				}
			}
			tabs, err := s.TriageMatrix(list, *seeds, *triageK)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ltpexperiments:", err)
				os.Exit(1)
			}
			emit("triage", joinTables(tabs))
		},
		"snapshot": func() {
			if *storeF == "" {
				fmt.Fprintln(os.Stderr, "ltpexperiments: -exp snapshot needs -store")
				os.Exit(2)
			}
			text, err := snapshotManifest(*storeF)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ltpexperiments:", err)
				os.Exit(1)
			}
			emit("snapshot", text)
		},
		"diff": func() {
			var list []string
			if *scns != "" {
				for _, s := range strings.Split(*scns, ",") {
					list = append(list, strings.TrimSpace(s))
				}
			}
			text, err := diffCampaign(s, list, *seeds, *par, *storeF, *maniF)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ltpexperiments:", err)
				os.Exit(1)
			}
			emit("diff", text)
		},
	}
	// "triage", "snapshot" and "diff" are on demand only: "all" sticks
	// to the paper's figures.
	order := []string{"table1", "groups", "fig1", "fig3", "fig6", "fig7", "fig10", "fig11", "uit", "ablation", "wibvsltp", "dram", "matrix"}

	if *exp == "all" {
		for _, name := range order {
			run[name]()
		}
		return
	}
	fn, ok := run[*exp]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown experiment %q (want one of %s, all)\n", *exp, strings.Join(order, ", "))
		os.Exit(2)
	}
	fn()
}
