// Command ir-run executes one evaluated application — or a textual TIR
// assembly file — under a chosen runtime configuration and reports wall time
// plus runtime statistics. It is the quick way to poke at a single Table 3
// cell, or to run hand-written programs under the recorder:
//
//	ir-run -app fluidanimate -sys iReplayer
//	ir-run -app x264 -sys IR-Alloc -scale 0.5 -normalized
//	ir-run -asm prog.tir -replay
//
// With -flight N it becomes an always-on flight recorder: the run streams
// into a bounded ring that retains roughly the last N epochs, and the
// retained suffix spills into the trace store on a fault, on SIGINT/SIGTERM,
// or (with -spill) on clean exit. A SIGKILLed run leaves the ring on disk;
// `ir-trace salvage` recovers it.
//
//	ir-run -app memcached -flight 8 -flight-dir ./traces
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/tir"
	"repro/internal/trace"
	"repro/internal/workloads"
)

var systems = map[string]bench.System{
	"baseline":  bench.SysBaseline,
	"IR-Alloc":  bench.SysIRAlloc,
	"iReplayer": bench.SysIReplayer,
	"detect":    bench.SysIRDetect,
}

func main() {
	app := flag.String("app", "sqlite", "application name (see internal/workloads)")
	asmFile := flag.String("asm", "", "run a .tir assembly file instead of a named app")
	replay := flag.Bool("replay", false, "with -asm: replay the final epoch and verify identity")
	sys := flag.String("sys", "iReplayer", "baseline | IR-Alloc | iReplayer | detect")
	scale := flag.Float64("scale", 1.0, "iteration scale")
	norm := flag.Bool("normalized", false, "also report runtime normalized to baseline")
	seed := flag.Int64("seed", 42, "external-nondeterminism seed")
	eventCap := flag.Int("eventcap", 0, "per-thread event list size (0 = default)")
	flightN := flag.Int("flight", 0,
		"flight-recorder mode: retain roughly the last N epochs in a bounded on-disk ring, spilling a replayable suffix to -flight-dir on fault or signal (0 = off)")
	flightDir := flag.String("flight-dir", "traces", "trace store the flight recorder spills into")
	flightName := flag.String("flight-name", "", "trace name for the spill (default: the app name)")
	spill := flag.Bool("spill", false, "with -flight: spill the retained suffix on clean exit too")
	logLevel := flag.String("log-level", "info", "stderr diagnostic verbosity: debug, info, warn, error")
	logJSON := flag.Bool("log-json", false, "emit stderr diagnostics as JSON lines")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ir-run:", err)
		os.Exit(2)
	}
	logger := obs.NewLogger(os.Stderr, level, *logJSON)

	if *asmFile != "" {
		if err := runAsm(*asmFile, *replay); err != nil {
			logger.Error("asm run failed", "file", *asmFile, "err", err)
			os.Exit(1)
		}
		return
	}

	spec, err := workloads.ByNameStrict(*app)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ir-run:", err)
		os.Exit(2)
	}
	system, ok := systems[*sys]
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown system %q\n", *sys)
		os.Exit(2)
	}
	if *scale != 1.0 {
		spec.Iters = int(float64(spec.Iters) * *scale)
		if spec.Iters < 3 {
			spec.Iters = 3
		}
	}
	if *flightN > 0 {
		if err := runFlight(logger, spec, *flightDir, *flightName, *flightN, *seed, *eventCap, *spill); err != nil {
			logger.Error("flight run failed", "app", spec.Name, "err", err)
			os.Exit(1)
		}
		return
	}
	start := time.Now()
	d, err := bench.RunOnce(spec, system, *seed)
	if err != nil {
		logger.Error("run failed", "app", spec.Name, "sys", *sys, "err", err)
		os.Exit(1)
	}
	fmt.Printf("%s under %s: %v (wall %v)\n", spec.Name, *sys, d, time.Since(start))
	if *norm {
		r, err := bench.Normalized(spec, system, 3)
		if err != nil {
			logger.Error("normalize failed", "app", spec.Name, "err", err)
			os.Exit(1)
		}
		fmt.Printf("normalized runtime: %.3f\n", r)
	}
}

// runFlight runs spec with a flight recorder attached. The spill policy is
// the flight recorder's contract: a reproduced fault or a SIGINT/SIGTERM
// always spills the retained suffix (the evidence), a clean exit discards
// the ring unless -spill asked for it, and SIGKILL (which no process can
// catch) leaves the ring behind for `ir-trace salvage`.
func runFlight(logger *slog.Logger, spec workloads.Spec, dir, name string, retain int, seed int64, eventCap int, spillClean bool) error {
	mod, err := spec.Build()
	if err != nil {
		return err
	}
	st, err := trace.OpenStore(dir)
	if err != nil {
		return err
	}
	if name == "" {
		name = spec.Name
	}
	rec, err := flight.New(flight.RingPath(st, name), trace.Header{
		App:        spec.Name,
		ModuleHash: tir.Fingerprint(mod),
		EventCap:   eventCap,
		Seed:       seed,
		AppIters:   spec.Iters,
	}, retain)
	if err != nil {
		return err
	}
	defer rec.Close()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	rt, err := core.New(mod, core.Options{
		Seed: seed, EventCap: eventCap,
		FlightRecorder: rec,
		Interrupt:      ctx.Err,
	})
	if err != nil {
		return err
	}
	spec.SetupOS(rt.OS())

	start := time.Now()
	rep, runErr := rt.Run()
	wall := time.Since(start).Round(time.Millisecond)
	if rep == nil {
		return runErr
	}
	signaled := runErr != nil && (errors.Is(runErr, context.Canceled) || errors.Is(runErr, context.DeadlineExceeded))

	doSpill := func(sum *trace.Summary, why string) error {
		stats, err := rec.Spill(st, name, sum)
		if err != nil {
			return fmt.Errorf("flight spill: %w", err)
		}
		logger.Debug("flight spill", "why", why, "epochs", stats.Epochs,
			"first_epoch", stats.FirstEpoch, "bytes", stats.Bytes, "path", st.Path(name))
		fmt.Printf("flight: %s; spilled %d epochs (from epoch %d), %d bytes -> %s\n",
			why, stats.Epochs, stats.FirstEpoch, stats.Bytes, st.Path(name))
		return nil
	}
	switch {
	case signaled:
		// No exit/output oracle: the run did not finish. The suffix stores a
		// partial summary and still replays its schedule.
		if err := doSpill(nil, "interrupted by signal"); err != nil {
			return err
		}
		return nil
	case runErr != nil:
		// A reproduced fault is exactly what the flight recorder exists for.
		if err := doSpill(&trace.Summary{Exit: rep.Exit, Output: rep.Output}, "fault reproduced"); err != nil {
			return err
		}
		return fmt.Errorf("%s faulted after %v: %w", spec.Name, wall, runErr)
	case spillClean:
		if err := doSpill(&trace.Summary{Exit: rep.Exit, Output: rep.Output}, "clean exit (-spill)"); err != nil {
			return err
		}
		return nil
	default:
		fmt.Printf("flight: %s exited cleanly (exit=%d, %d epochs, wall=%v); ring discarded\n",
			spec.Name, rep.Exit, rep.Stats.Epochs, wall)
		return nil
	}
}

// runAsm assembles and executes a textual TIR program under full recording;
// with replay set it also re-executes the final epoch in-situ and verifies
// that the heap image is identical.
func runAsm(path string, replay bool) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	mod, err := tir.Assemble(string(src))
	if err != nil {
		return err
	}
	var img1, img2 []byte
	opts := core.Options{}
	if replay {
		opts.OnEpochEnd = func(rt *core.Runtime, info core.EpochEndInfo) core.Decision {
			if info.Reason == core.StopProgramEnd && img1 == nil {
				img1 = rt.Mem().HeapImage()
				return core.Replay
			}
			return core.Proceed
		}
		opts.OnReplayMatched = func(rt *core.Runtime, attempts int) core.Decision {
			img2 = rt.Mem().HeapImage()
			fmt.Printf("replay matched on attempt %d\n", attempts)
			return core.Proceed
		}
	}
	rt, err := core.New(mod, opts)
	if err != nil {
		return err
	}
	rep, err := rt.Run()
	if err != nil {
		return err
	}
	fmt.Printf("exit=%d epochs=%d replays=%d\n", rep.Exit, rep.Stats.Epochs, rep.Stats.Replays)
	if out := rep.Output; out != "" {
		fmt.Printf("output:\n%s", out)
	}
	if replay {
		if d := mem.DiffBytes(img1, img2); d == 0 {
			fmt.Println("replayed heap image is byte-identical")
		} else {
			return fmt.Errorf("replay differed in %d heap bytes", d)
		}
	}
	return nil
}
