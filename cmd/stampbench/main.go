// Command stampbench regenerates the paper's STAMP evaluation artifacts
// — Tables I–IV and Figures 4–10 — by running the full profile → model
// → analyze → guided/default pipeline for every kernel at the requested
// thread counts.
//
// Usage:
//
//	stampbench [flags]
//	  -tables 1,3,4        which tables to print (2 prints host config)
//	  -figures 4,5,...,10  which figures to print
//	  -all                 print every table and figure (default)
//	  -threads 8,16        thread counts to sweep
//	  -workloads a,b       kernels (default: all seven)
//	  -profile-runs 20 -measure-runs 20
//	  -profile-size medium -measure-size small
//	  -tfactor 4 -seed 1 -force
//
// Scale down -profile-runs/-measure-runs and use -threads 4 for quick
// smoke runs; paper-shaped output needs the defaults.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"

	"gstm/internal/harness"
	"gstm/internal/stamp"
)

func parseIntList(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			return nil, fmt.Errorf("bad integer %q", part)
		}
		out = append(out, n)
	}
	return out, nil
}

func main() {
	var (
		tablesFlag   = flag.String("tables", "", "comma-separated table numbers (1-4)")
		figuresFlag  = flag.String("figures", "", "comma-separated figure numbers (4-10)")
		allFlag      = flag.Bool("all", false, "print every table and figure")
		threadsFlag  = flag.String("threads", "8,16", "thread counts to sweep")
		workloads    = flag.String("workloads", "", "kernels (default all)")
		profileRuns  = flag.Int("profile-runs", 20, "training runs per model")
		measureRuns  = flag.Int("measure-runs", 20, "measurement runs per mode")
		profileSize  = flag.String("profile-size", "medium", "training input size")
		measureSize  = flag.String("measure-size", "small", "measurement input size")
		tfactor      = flag.Float64("tfactor", 4, "guidance threshold divisor")
		seed         = flag.Int64("seed", 1, "workload content seed")
		force        = flag.Bool("force", true, "run guided mode even for unfit models (needed for Figure 8)")
		csvPath      = flag.String("csv", "", "also write a machine-readable summary CSV to this path")
		maxprocsFlag = flag.Int("gomaxprocs", 0, "override GOMAXPROCS (0 = leave as is)")
		quiet        = flag.Bool("q", false, "suppress progress output")
	)
	flag.Parse()

	if *maxprocsFlag > 0 {
		runtime.GOMAXPROCS(*maxprocsFlag)
	}

	tables, err := parseIntList(*tablesFlag)
	if err != nil {
		fatalf("parsing -tables: %v", err)
	}
	figures, err := parseIntList(*figuresFlag)
	if err != nil {
		fatalf("parsing -figures: %v", err)
	}
	if *allFlag || (len(tables) == 0 && len(figures) == 0) {
		tables = []int{1, 2, 3, 4}
		figures = []int{4, 5, 6, 7, 8, 9, 10}
	}
	threads, err := parseIntList(*threadsFlag)
	if err != nil || len(threads) == 0 {
		fatalf("parsing -threads: %v", err)
	}
	pSize, err := stamp.ParseSize(*profileSize)
	if err != nil {
		fatalf("%v", err)
	}
	mSize, err := stamp.ParseSize(*measureSize)
	if err != nil {
		fatalf("%v", err)
	}
	var names []string
	if *workloads != "" {
		names = strings.Split(*workloads, ",")
	}

	logf := func(format string, args ...any) {
		if !*quiet {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	res, err := harness.RunSuite(harness.SuiteConfig{
		Threads:     threads,
		Workloads:   names,
		ProfileRuns: *profileRuns,
		MeasureRuns: *measureRuns,
		ProfileSize: pSize,
		MeasureSize: mSize,
		Tfactor:     *tfactor,
		Seed:        *seed,
		ForceAll:    *force,
	}, logf)
	if err != nil {
		fatalf("suite failed: %v", err)
	}

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			fatalf("creating CSV: %v", err)
		}
		if err := res.WriteSummaryCSV(f); err != nil {
			fatalf("writing CSV: %v", err)
		}
		if err := f.Close(); err != nil {
			fatalf("closing CSV: %v", err)
		}
		fmt.Fprintf(os.Stderr, "summary CSV written to %s\n", *csvPath)
	}

	out := os.Stdout
	for _, t := range tables {
		switch t {
		case 1:
			res.RenderTableI(out)
		case 2:
			res.RenderTableII(out)
		case 3:
			res.RenderTableIII(out)
		case 4:
			res.RenderTableIV(out)
		default:
			fatalf("unknown table %d (have 1-4)", t)
		}
		fmt.Fprintln(out)
	}
	for _, f := range figures {
		switch f {
		case 4:
			res.RenderVarianceFigure(out, threads[0], "4")
		case 5:
			res.RenderAbortTailFigure(out, threads[0], "5")
		case 6:
			res.RenderVarianceFigure(out, threads[len(threads)-1], "6")
		case 7:
			res.RenderAbortTailFigure(out, threads[len(threads)-1], "7")
		case 8:
			res.RenderFigure8(out)
		case 9:
			res.RenderFigure9(out)
		case 10:
			res.RenderFigure10(out)
		default:
			fatalf("unknown figure %d (have 4-10)", f)
		}
		fmt.Fprintln(out)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "stampbench: "+format+"\n", args...)
	os.Exit(1)
}
