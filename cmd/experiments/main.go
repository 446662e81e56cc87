// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments [-fig all|1|20|21|22|23|sens|naive|locks|idle|quiesce|cycles|headline]
//	            [-cores N] [-parallel N] [-v] [-bench a,b,c] [-csv DIR]
//	            [-cpuprofile cpu.pprof] [-memprofile mem.pprof]
//
// With the defaults (64 cores, all 19 benchmarks) the full run takes
// a few minutes; use -cores 16 and/or -bench for quick looks. The
// figures read their cells from one cell set per invocation, so a cell
// two figures share is simulated once. Its cells fan out over -parallel
// worker goroutines (default: GOMAXPROCS); every cell simulates on its
// own kernel, so the tables are byte-identical to a -parallel=1 run.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: all, 1, 20, 21, 22, 23, sens, headline, naive, locks, quiesce, idle, cycles")
	cores := flag.Int("cores", 64, "simulated cores (perfect square, <= 64)")
	parallel := flag.Int("parallel", runtime.GOMAXPROCS(0),
		"worker goroutines per sweep (1 = serial; results are identical either way)")
	verbose := flag.Bool("v", false, "log each simulation run, and end with the host time per setup")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default: all 19)")
	csv := flag.String("csv", "", "directory to also write each table as CSV")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file (inspect with go tool pprof)")
	memprofile := flag.String("memprofile", "", "write an allocation profile to this file on exit")
	flag.Parse()
	csvDir = *csv
	if csvDir != "" {
		if err := os.MkdirAll(csvDir, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "experiments:", err)
			os.Exit(1)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
				return
			}
			defer f.Close()
			runtime.GC() // materialize the final live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}

	// ^C / SIGTERM aborts in-flight simulations cleanly between kernel
	// events instead of leaving a sweep half-printed.
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	o := experiments.Options{Cores: *cores, Parallelism: *parallel, Context: ctx}
	if *benchList != "" {
		o.Benchmarks = strings.Split(*benchList, ",")
	}
	var host ledger
	if *verbose {
		o.Logf = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
		o.Progress = host.observe
	}

	start := time.Now()
	if err := run(*fig, o); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	if *verbose {
		fmt.Fprint(os.Stderr, "\n", host.table())
	}
	fmt.Printf("\n[total wall time %v]\n", time.Since(start).Round(time.Millisecond))
}

// csvDir, when set, receives a CSV copy of every printed table.
var csvDir string

// emit prints tables and mirrors them to CSV files when -csv is set.
func emit(name string, tables ...*metrics.Table) error {
	for i, t := range tables {
		fmt.Println(t)
		if csvDir == "" {
			continue
		}
		fn := fmt.Sprintf("%s/%s_%d.csv", csvDir, name, i)
		if len(tables) == 1 {
			fn = fmt.Sprintf("%s/%s.csv", csvDir, name)
		}
		if err := os.WriteFile(fn, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func run(fig string, o experiments.Options) error {
	if err := machine.ValidateCores(o.Cores); err != nil {
		return err
	}
	for i, name := range o.Benchmarks {
		o.Benchmarks[i] = strings.TrimSpace(name)
	}
	runs := experiments.NewRuns(o)
	need21 := fig == "all" || fig == "1" || fig == "20" || fig == "21" || fig == "22" || fig == "headline"
	needNaive := fig == "all" || fig == "20" || fig == "naive"

	var scal, naive *experiments.SuiteResults
	var err error
	if need21 {
		fmt.Fprintln(os.Stderr, "running scalable-synchronization suite (CLH + TreeSR)...")
		scal, err = experiments.RunSuite(experiments.StandardSetups(), workload.StyleScalable, runs)
		if err != nil {
			return err
		}
	}
	if needNaive {
		fmt.Fprintln(os.Stderr, "running naive-synchronization suite (T&T&S + SR)...")
		naive, err = experiments.RunSuite(experiments.StandardSetups(), workload.StyleNaive, runs)
		if err != nil {
			return err
		}
	}

	show := func(name string, body func() error) error {
		if fig != "all" && fig != name {
			return nil
		}
		return body()
	}

	if err := show("1", func() error {
		llc, lat := experiments.Fig1(scal)
		return emit("fig1", llc, lat)
	}); err != nil {
		return err
	}
	if err := show("20", func() error {
		llc, lat := experiments.Fig20(scal, naive)
		return emit("fig20", llc, lat)
	}); err != nil {
		return err
	}
	if err := show("21", func() error {
		timeT, trafT := experiments.SuiteToFig21(scal)
		return emit("fig21", timeT, trafT)
	}); err != nil {
		return err
	}
	if err := show("22", func() error {
		return emit("fig22", experiments.Fig22(scal))
	}); err != nil {
		return err
	}
	if err := show("23", func() error {
		fmt.Fprintln(os.Stderr, "running Figure 23 lock comparison (TreeSR fixed)...")
		t, err := experiments.Fig23(runs)
		if err != nil {
			return err
		}
		return emit("fig23", t)
	}); err != nil {
		return err
	}
	if err := show("sens", func() error {
		fmt.Fprintln(os.Stderr, "running callback-directory size sensitivity...")
		t, err := experiments.SensitivityEntries(runs)
		if err != nil {
			return err
		}
		return emit("sensitivity", t)
	}); err != nil {
		return err
	}
	if err := show("naive", func() error {
		fmt.Println(experiments.ComputeNaiveSummary(naive))
		return nil
	}); err != nil {
		return err
	}
	if err := show("locks", func() error {
		fmt.Fprintln(os.Stderr, "running lock extension study...")
		lat, llc, err := experiments.ExtensionLocks(o)
		if err != nil {
			return err
		}
		return emit("locks", lat, llc)
	}); err != nil {
		return err
	}
	if err := show("idle", func() error {
		fmt.Fprintln(os.Stderr, "running idle-while-blocked extension study...")
		t, err := experiments.ExtensionIdleEnergy(runs)
		if err != nil {
			return err
		}
		return emit("idle", t)
	}); err != nil {
		return err
	}
	if err := show("quiesce", func() error {
		fmt.Fprintln(os.Stderr, "running quiesce (MWAIT) extension study...")
		t, err := experiments.ExtensionQuiesce(runs)
		if err != nil {
			return err
		}
		return emit("quiesce", t)
	}); err != nil {
		return err
	}
	if err := show("cycles", func() error {
		fmt.Fprintln(os.Stderr, "running cycle-stack accounting sweep...")
		bench := "radiosity"
		if len(o.Benchmarks) > 0 {
			bench = o.Benchmarks[0]
		}
		res, err := experiments.RunCycleStacks(bench, experiments.StandardSetups(), workload.StyleScalable, o)
		if err != nil {
			return err
		}
		return emit("cycles", res.Table)
	}); err != nil {
		return err
	}
	if err := show("headline", func() error {
		fmt.Println(experiments.ComputeHeadline(scal))
		return nil
	}); err != nil {
		return err
	}
	if fig == "all" || fig == "sens" {
		return nil
	}
	switch fig {
	case "1", "20", "21", "22", "23", "headline", "quiesce", "naive", "locks", "idle", "cycles":
		return nil
	}
	return fmt.Errorf("unknown figure %q", fig)
}
