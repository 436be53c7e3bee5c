// Command racecheck records a racy workload once, then lets the replay-time race
// analyzer name the racing pair. During recording the race is invisible —
// the program's synchronization sequence is deterministic, so nothing
// diverges — but a single offline re-execution of the stored trace with the
// happens-before analyzer attached reports both racing accesses with their
// call stacks, instead of the mere divergence signal of §5.2.
package main

import (
	"fmt"
	"log"

	"repro"

	"repro/internal/analysis"
	"repro/internal/record"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	// The ground-truth corpus program: two threads increment a shared
	// counter without a lock (racy_inc_a / racy_inc_b).
	c, ok := workloads.AnalysisByName("race-counter")
	if !ok {
		log.Fatal("race-counter missing from the analysis corpus")
	}
	mod := c.Build()

	// Record: stream every epoch's finalized lists into memory — the same
	// hand-off a persistent trace file uses.
	var epochs []*record.EpochLog
	rt, err := ireplayer.New(mod, ireplayer.Options{
		TraceSink: func(ep *record.EpochLog) error { epochs = append(epochs, ep); return nil },
	})
	if err != nil {
		log.Fatal(err)
	}
	rep, err := rt.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recorded %d epoch(s); replaying with the race analyzer attached\n", len(epochs))

	// Analyze: one deterministic re-execution through the trace executor —
	// the path ir-trace analyze takes — with the analyzer observing every
	// sync edge and memory access.
	h := trace.OpenTrace(&trace.Trace{
		Header:  trace.Header{ModuleHash: ireplayer.Fingerprint(mod)},
		Epochs:  epochs,
		Summary: &trace.Summary{Exit: rep.Exit, Output: rep.Output},
	})
	res, _ := trace.AnalyzeBatch([]trace.AnalyzeJob{{
		Job: trace.Job{Name: "race-counter", Module: mod, Handle: h},
		NewAnalyzers: func() []analysis.Analyzer {
			return []analysis.Analyzer{analysis.NewRaceDetector()}
		},
	}}, 1)
	if res[0].Err != nil {
		log.Fatal(res[0].Err)
	}
	findings := res[0].Findings
	if len(findings) == 0 {
		log.Fatal("race not detected")
	}
	fmt.Printf("detected %d racing pair(s):\n", len(findings))
	for _, f := range findings {
		fmt.Print(f)
	}
}
