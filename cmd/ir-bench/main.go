// Command ir-bench regenerates the paper's evaluation tables and figures
// over the synthesized applications:
//
//	ir-bench -table 1        memory-difference identity check (§5.2)
//	ir-bench -table 2        Crasher race reproduction (§5.2.1)
//	ir-bench -table 3        recording overhead (§5.3)
//	ir-bench -figure 5       detector overhead with and without detectors (§5.4.2)
//	ir-bench -detection      bug-corpus effectiveness (§5.4.1)
//	ir-bench -all            everything
//
// -scale shrinks/grows the workloads, -rounds controls timing repetitions,
// and -runs sizes the Crasher experiment. Performance is measured by the
// repo's benchmark, `go run ./benchmarks/irbench`, not here.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/bench"
	"repro/internal/workloads"
)

func main() {
	table := flag.Int("table", 0, "regenerate table 1, 2, or 3")
	figure := flag.Int("figure", 0, "regenerate figure 5")
	detection := flag.Bool("detection", false, "regenerate the 5.4.1 detection table")
	all := flag.Bool("all", false, "regenerate everything")
	scale := flag.Float64("scale", 1.0, "workload iteration scale factor")
	rounds := flag.Int("rounds", 3, "timing repetitions per cell (median)")
	runs := flag.Int("runs", 200, "Crasher executions for table 2")
	flag.Parse()

	if *all {
		*table = 0
		*figure = 0
		*detection = true
	}
	run := func(name string, f func() error) {
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Println()
	}

	apps := workloads.Apps()
	if *all || *table == 1 {
		run("table1", func() error {
			rows, err := bench.Table1(apps, *scale)
			if err != nil {
				return err
			}
			bench.PrintTable1(os.Stdout, rows)
			fmt.Println("note: canneal uses ad hoc atomic synchronization; its IR column is")
			fmt.Println("expected to be nonzero until atomics are replaced (canneal-mutex):")
			fixed, err := bench.Table1([]workloads.Spec{workloads.CannealMutex()}, *scale)
			if err != nil {
				return err
			}
			bench.PrintTable1(os.Stdout, fixed)
			return nil
		})
	}
	if *all || *table == 2 {
		run("table2", func() error {
			res, err := bench.Table2(*runs, workloads.DefaultCrasher())
			if err != nil {
				return err
			}
			bench.PrintTable2(os.Stdout, res)
			return nil
		})
	}
	if *all || *table == 3 {
		run("table3", func() error {
			rows, err := bench.Table3(apps, *rounds, *scale)
			if err != nil {
				return err
			}
			bench.PrintTable3(os.Stdout, rows)
			return nil
		})
	}
	if *all || *figure == 5 {
		run("figure5", func() error {
			rows, err := bench.Figure5(apps, *rounds, *scale)
			if err != nil {
				return err
			}
			bench.PrintFigure5(os.Stdout, rows)
			return nil
		})
	}
	if *detection {
		run("detection", func() error {
			rows, err := bench.DetectionTable()
			if err != nil {
				return err
			}
			bench.PrintDetection(os.Stdout, rows)
			return nil
		})
	}
	if !*all && *table == 0 && *figure == 0 && !*detection {
		flag.Usage()
		os.Exit(2)
	}
}
