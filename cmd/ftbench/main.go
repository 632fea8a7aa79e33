// Command ftbench regenerates the experiment tables of EXPERIMENTS.md.
//
// Usage:
//
//	ftbench                 # run the whole suite at full scale
//	ftbench -exp E7         # one experiment
//	ftbench -scale 0.3      # quick pass
//	ftbench -csv -o out/    # additionally write CSV per experiment
//	ftbench -bench-json BENCH_core.json
//	                        # instead: benchmark the core engines
//	                        # (sequential vs worker pool) and write the
//	                        # machine-readable performance report
//	ftbench -repair-json BENCH_repair.json
//	                        # instead: benchmark incremental repair
//	                        # against a full re-solve
//
// The serving path is benchmarked by cmd/ftperf; one solve's per-phase
// breakdown is printed by `kmds -trace`.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"

	"ftclust/internal/exp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "ftbench:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		id         = flag.String("exp", "", "experiment id (E1…E11, A1…A3); empty = all")
		seed       = flag.Int64("seed", 1, "root seed")
		trials     = flag.Int("trials", 5, "trials per table row")
		scale      = flag.Float64("scale", 1.0, "instance-size scale in (0,1]")
		csv        = flag.Bool("csv", false, "also write CSV files")
		outDir     = flag.String("o", ".", "directory for CSV output")
		benchJSON  = flag.String("bench-json", "", "benchmark the core engines and write this JSON report instead of running experiments")
		repairJSON = flag.String("repair-json", "", "benchmark incremental repair vs full re-solve and write this JSON report instead of running experiments")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the selected mode to this file (inspect with go tool pprof)")
	)
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	if *benchJSON != "" {
		return runBenchJSON(*benchJSON, *scale)
	}
	if *repairJSON != "" {
		return runRepairJSON(*repairJSON, *scale, *seed)
	}

	cfg := exp.Config{Seed: *seed, Trials: *trials, Scale: *scale}
	var suite []exp.Experiment
	if *id == "" {
		suite = exp.All()
	} else {
		e, err := exp.Lookup(*id)
		if err != nil {
			return err
		}
		suite = []exp.Experiment{e}
	}

	return runSuite(suite, cfg, *csv, *outDir)
}

func runSuite(suite []exp.Experiment, cfg exp.Config, csv bool, outDir string) error {
	for _, e := range suite {
		start := time.Now()
		tb, err := e.Run(cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if err := tb.WriteText(os.Stdout); err != nil {
			return err
		}
		fmt.Printf("(%s finished in %v)\n\n", e.ID, time.Since(start).Round(time.Millisecond))
		if csv {
			path := filepath.Join(outDir, e.ID+".csv")
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := tb.WriteCSV(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}
