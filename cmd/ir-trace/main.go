// Command ir-trace records evaluated applications into persistent trace
// files, replays them offline, and runs replay-time analyses over them —
// the record-once / replay-and-analyze-many workflow the in-memory runtime
// alone cannot offer:
//
//	ir-trace record -app pfscan -dir ./traces          # run + persist
//	ir-trace record -app pfscan -checkpoint-every 2    # + checkpoint frames
//	ir-trace ls -dir ./traces                          # inventory (footer-read)
//	ir-trace ls -dir ./traces -json                    # machine-readable
//	ir-trace replay -name pfscan -dir ./traces         # one offline replay
//	ir-trace replay -name pfscan -n 16 -workers 4      # parallel fan-out
//	ir-trace replay -name pfscan -segments -workers 4  # segment-parallel
//	ir-trace verify -name pfscan -dir ./traces         # replay + compare
//	ir-trace analyze -name race-counter -dir ./traces  # race+leak analysis
//	ir-trace analyze -all -workers 4 -json             # whole store, JSON
//	ir-trace compact -name pfscan -dir ./traces        # compress in place
//	ir-trace gc -dir ./traces -max-mb 512 -max-age 72h # retention (pins exempt)
//	ir-trace pin -name pfscan; ir-trace rm -name old   # lifecycle
//	ir-trace salvage -name pfscan -dir ./traces        # recover a crashed ring
//	ir-trace timeline -name pfscan -o t.json           # Chrome trace timeline
//
// Traces are stored one file per recording ("<name>.irt"), indexed by the
// recorded module's fingerprint; replay rebuilds the named workload, checks
// the fingerprint, and re-executes through the divergence-checking replay
// path. Both the evaluated applications and the analysis ground-truth
// corpus (racy/leaky programs with known defects) are recordable.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/flight"
	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = cmdRecord(os.Args[2:])
	case "replay":
		err = cmdReplay(os.Args[2:])
	case "ls":
		err = cmdLs(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "analyze":
		err = cmdAnalyze(os.Args[2:])
	case "compact":
		err = cmdCompact(os.Args[2:])
	case "rm":
		err = cmdRm(os.Args[2:])
	case "gc":
		err = cmdGC(os.Args[2:])
	case "pin":
		err = cmdPin(os.Args[2:], true)
	case "unpin":
		err = cmdPin(os.Args[2:], false)
	case "salvage":
		err = cmdSalvage(os.Args[2:])
	case "timeline":
		err = cmdTimeline(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "ir-trace: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ir-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: ir-trace <record|replay|ls|verify|analyze|compact|rm|gc|pin|unpin|salvage|timeline> [flags]

  record   -app NAME [-name N] [-dir D] [-scale S] [-seed N] [-eventcap N] [-checkpoint-every N] [-keyframe-every K] [-compress] [-flight N]
  replay   -name N [-dir D] [-n COPIES] [-workers W] [-max-replays N] [-delay] [-segments]
  ls       [-dir D] [-json]
  verify   -name N [-dir D]
  analyze  -name N | -all [-dir D] [-analyzers race,leak] [-segments] [-workers W] [-json]
  compact  -name N [-dir D] [-keyframe-every K]   rewrite compressed + re-keyframed, in place
  rm       -name N [-dir D]                       delete a stored trace (and its pin)
  gc       [-dir D] [-max-mb N] [-max-age DUR]    enforce a retention policy (pins exempt)
  pin      -name N [-dir D]                       shield a trace from gc
  unpin    -name N [-dir D]
  salvage  -name N [-dir D] [-as NAME]            recover a crashed run's flight-recorder ring
  timeline -name N [-dir D] [-workers W] [-o F]   segment-replay with span capture; Chrome trace JSON

known apps:
`)
	for _, name := range workloads.Names() {
		fmt.Fprintf(os.Stderr, "  %s\n", name)
	}
	fmt.Fprint(os.Stderr, "analysis ground-truth corpus:\n")
	for _, name := range workloads.AnalysisNames() {
		fmt.Fprintf(os.Stderr, "  %s\n", name)
	}
}

func cmdRecord(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	app := fs.String("app", "", "application to record (see ir-trace help)")
	name := fs.String("name", "", "trace name (default: the app name)")
	dir := fs.String("dir", "traces", "trace store directory")
	scale := fs.Float64("scale", 1.0, "iteration scale")
	seed := fs.Int64("seed", 42, "external-nondeterminism seed")
	eventCap := fs.Int("eventcap", 0, "per-thread event list size (0 = default)")
	ckptEvery := fs.Int("checkpoint-every", 0,
		"persist a checkpoint frame every N epochs (0 = none); checkpointed traces replay segment-parallel")
	keyEvery := fs.Int("keyframe-every", 0,
		"make every K-th checkpoint frame a full-image keyframe (0 = writer default)")
	compress := fs.Bool("compress", false,
		"deflate epoch and checkpoint frame bodies as they are written")
	flightN := fs.Int("flight", 0,
		"flight-recorder mode: retain roughly the last N epochs in a bounded ring and store only that suffix (0 = record the whole run)")
	fs.Parse(args)
	if *app == "" {
		return fmt.Errorf("record: -app is required")
	}
	st, err := trace.OpenStore(*dir)
	if err != nil {
		return err
	}
	start := time.Now()
	res, err := server.RecordTrace(st, server.RecordRequest{
		App:             *app,
		Name:            *name,
		Scale:           *scale,
		Seed:            *seed,
		EventCap:        *eventCap,
		CheckpointEvery: *ckptEvery,
		KeyframeEvery:   *keyEvery,
		Compress:        *compress,
		FlightEpochs:    *flightN,
	}, nil)
	if err != nil {
		return err
	}
	if res.Fault != "" {
		// A faulting run still leaves a valid trace (the bug-reproduction
		// use case); report both.
		fmt.Printf("recorded %s with fault: %s\n", res.Trace, res.Fault)
	}
	if res.Suffix {
		fmt.Printf("recorded %s: suffix of %d epochs (from epoch %d), %d bytes, exit=%d, wall=%v -> %s\n",
			res.Trace, res.Epochs, res.FirstEpoch, res.Bytes, res.Exit,
			time.Since(start).Round(time.Millisecond), res.Path)
		return nil
	}
	fmt.Printf("recorded %s: %d epochs, %d checkpoints (%d keyframes), %d bytes, exit=%d, wall=%v -> %s\n",
		res.Trace, res.Epochs, res.Checkpoints, res.Keyframes, res.Bytes, res.Exit,
		time.Since(start).Round(time.Millisecond), res.Path)
	return nil
}

// loadJob resolves a stored trace back to a runnable replay job through the
// service layer's resolver — the same path ir-served jobs take.
func loadJob(st *trace.Store, name string, opts core.Options) (trace.Job, error) {
	return server.ResolveJob(st, name, opts)
}

func cmdReplay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	name := fs.String("name", "", "trace name to replay")
	dir := fs.String("dir", "traces", "trace store directory")
	n := fs.Int("n", 1, "number of parallel re-replays")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	maxReplays := fs.Int("max-replays", 0, "divergence search bound (0 = default)")
	delay := fs.Bool("delay", true, "randomized delays on divergence retries")
	segments := fs.Bool("segments", false,
		"split the trace at its checkpoint frames and replay the segments in parallel, verifying by stitching")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("replay: -name is required")
	}
	st, err := trace.OpenStore(*dir)
	if err != nil {
		return err
	}
	job, err := loadJob(st, *name, core.Options{
		MaxReplays: *maxReplays, DelayOnDivergence: *delay,
	})
	if err != nil {
		return err
	}
	defer job.Handle.Close()
	if *segments {
		return replaySegments(job, *workers)
	}
	jobs := []trace.Job{job}
	if *n > 1 {
		jobs = trace.Fanout(job, *n)
	}
	results, stats := trace.ReplayBatch(jobs, *workers)
	for _, r := range results {
		switch {
		case r.Matched && r.Err == nil:
			fmt.Printf("%-24s matched (attempts=%d, wall=%v)\n",
				r.Name, r.Report.Stats.LastReplayAttempts, r.Wall.Round(time.Millisecond))
		case r.Matched:
			fmt.Printf("%-24s matched, reproduced fault: %v\n", r.Name, r.Err)
		default:
			fmt.Printf("%-24s FAILED: %v\n", r.Name, r.Err)
		}
	}
	fmt.Printf("batch: %d/%d matched, %d events replayed, work=%v elapsed=%v (x%.1f)\n",
		stats.Matched, stats.Jobs, stats.Events,
		stats.Work.Round(time.Millisecond), stats.Elapsed.Round(time.Millisecond),
		float64(stats.Work)/float64(stats.Elapsed+1))
	if stats.Failed > 0 {
		return fmt.Errorf("%d replay(s) failed to match", stats.Failed)
	}
	return nil
}

// replaySegments is the -segments arm of cmdReplay: checkpoint-split
// parallel replay of one trace with stitching verification.
func replaySegments(job trace.Job, workers int) error {
	if job.Handle.NumCheckpoints() == 0 {
		fmt.Printf("%s: no checkpoint frames (record with -checkpoint-every); replaying as one segment\n", job.Name)
	}
	results, stats, err := trace.ReplaySegments(job, workers)
	for _, r := range results {
		switch {
		case r.Matched && r.Err == nil:
			fmt.Printf("%-28s matched (attempts=%d, wall=%v)\n",
				r.Name, r.Report.Stats.LastReplayAttempts, r.Wall.Round(time.Millisecond))
		case r.Matched:
			fmt.Printf("%-28s matched, reproduced fault: %v\n", r.Name, r.Err)
		default:
			fmt.Printf("%-28s FAILED: %v\n", r.Name, r.Err)
		}
	}
	fmt.Printf("segments: %d/%d stitched, %d events replayed, work=%v elapsed=%v (x%.1f)\n",
		stats.Matched, stats.Jobs, stats.Events,
		stats.Work.Round(time.Millisecond), stats.Elapsed.Round(time.Millisecond),
		float64(stats.Work)/float64(stats.Elapsed+1))
	if err != nil {
		return fmt.Errorf("segment replay: %w", err)
	}
	return nil
}

// cmdAnalyze fans replay-time analyses across stored traces in parallel.
func cmdAnalyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	name := fs.String("name", "", "trace to analyze (or -all)")
	all := fs.Bool("all", false, "analyze every complete trace in the store")
	dir := fs.String("dir", "traces", "trace store directory")
	spec := fs.String("analyzers", "race,leak", "comma-separated analyzer list (race, leak, profile)")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	maxReplays := fs.Int("max-replays", 0, "divergence search bound (0 = default)")
	delay := fs.Bool("delay", true, "randomized delays on divergence retries")
	segmented := fs.Bool("segments", false,
		"segment-parallel analysis: split each trace at its checkpoint frames (-workers sizes the segment pool)")
	asJSON := fs.Bool("json", false, "emit machine-readable findings on stdout")
	fs.Parse(args)
	if *name == "" && !*all {
		return fmt.Errorf("analyze: -name or -all is required")
	}
	if _, err := analysis.FromSpec(*spec); err != nil {
		return err // validate the analyzer list before any replay work
	}
	st, err := trace.OpenStore(*dir)
	if err != nil {
		return err
	}
	var names []string
	if *all {
		entries, err := st.List()
		if err != nil {
			return err
		}
		for _, e := range entries {
			if e.Header.App != "" && e.Complete {
				names = append(names, e.Name)
			}
		}
		if len(names) == 0 {
			return fmt.Errorf("analyze: no complete traces in %s", st.Dir())
		}
	} else {
		names = []string{*name}
	}

	jobs := make([]trace.AnalyzeJob, 0, len(names))
	for _, n := range names {
		job, err := loadJob(st, n, core.Options{
			MaxReplays: *maxReplays, DelayOnDivergence: *delay,
		})
		if err != nil {
			return err
		}
		defer job.Handle.Close()
		jobs = append(jobs, trace.AnalyzeJob{
			Job: job,
			NewAnalyzers: func() []analysis.Analyzer {
				az, _ := analysis.FromSpec(*spec) // validated above
				return az
			},
		})
	}
	var results []trace.AnalyzeResult
	var stats trace.BatchStats
	if *segmented {
		// Segment parallelism lives inside each trace, so traces run in
		// sequence and -workers sizes the per-trace segment pool.
		start := time.Now()
		for i := range jobs {
			res, sstats, err := trace.AnalyzeSegments(jobs[i], *workers)
			if err != nil {
				return fmt.Errorf("analyze %s: %w", jobs[i].Name, err)
			}
			results = append(results, res)
			stats.Jobs++
			stats.Work += sstats.Work
			stats.Events += sstats.Events
			stats.Attempts += sstats.Attempts
			if res.Matched {
				stats.Matched++
			} else {
				stats.Failed++
			}
		}
		stats.Elapsed = time.Since(start)
	} else {
		results, stats = trace.AnalyzeBatch(jobs, *workers)
	}

	if *asJSON {
		type jsonResult struct {
			Name     string                     `json:"name"`
			Matched  bool                       `json:"matched"`
			Error    string                     `json:"error,omitempty"`
			Findings []analysis.Finding         `json:"findings"`
			Segments []trace.SegmentAttribution `json:"segments,omitempty"`
		}
		out := make([]jsonResult, len(results))
		for i, r := range results {
			out[i] = jsonResult{Name: r.Name, Matched: r.Matched,
				Findings: r.Findings, Segments: r.Segments}
			if r.Err != nil {
				out[i].Error = r.Err.Error()
			}
			if out[i].Findings == nil {
				out[i].Findings = []analysis.Finding{}
			}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			return err
		}
	} else {
		for _, r := range results {
			switch {
			case !r.Matched:
				fmt.Printf("%-24s FAILED: %v\n", r.Name, r.Err)
				continue
			case r.Err != nil:
				fmt.Printf("%-24s matched (reproduced fault: %v), %d finding(s)\n",
					r.Name, r.Err, len(r.Findings))
			default:
				fmt.Printf("%-24s matched, %d finding(s) (wall=%v)\n",
					r.Name, len(r.Findings), r.Wall.Round(time.Millisecond))
			}
			for _, f := range r.Findings {
				fmt.Print(f)
			}
			for _, at := range r.Segments {
				fmt.Printf("  seg %-3d epochs %4d-%-4d %7d events  wall=%-8v fold=%v decode=%v exec=%v merge=%v\n",
					at.Seg, at.FirstEpoch, at.LastEpoch, at.Events,
					at.Wall.Round(time.Microsecond), at.Fold.Round(time.Microsecond),
					at.Decode.Round(time.Microsecond), at.Exec.Round(time.Microsecond),
					at.Merge.Round(time.Microsecond))
			}
		}
		fmt.Printf("batch: %d/%d analyzed, %d events re-executed, work=%v elapsed=%v (x%.1f)\n",
			stats.Matched, stats.Jobs, stats.Events,
			stats.Work.Round(time.Millisecond), stats.Elapsed.Round(time.Millisecond),
			float64(stats.Work)/float64(stats.Elapsed+1))
	}
	if stats.Failed > 0 {
		return fmt.Errorf("%d analysis replay(s) failed to match", stats.Failed)
	}
	return nil
}

func cmdLs(args []string) error {
	fs := flag.NewFlagSet("ls", flag.ExitOnError)
	dir := fs.String("dir", "traces", "trace store directory")
	asJSON := fs.Bool("json", false, "emit machine-readable entries on stdout")
	fs.Parse(args)
	st, err := trace.OpenStore(*dir)
	if err != nil {
		return err
	}
	entries, err := st.List()
	if err != nil {
		return err
	}
	if *asJSON {
		// The JSON shape is the daemon's (server.TraceEntry), so the CLI and
		// GET /api/v1/traces cannot drift.
		out := make([]server.TraceEntry, len(entries))
		for i, e := range entries {
			out[i] = server.NewTraceEntry(e)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	if len(entries) == 0 {
		fmt.Printf("no traces in %s\n", st.Dir())
		return nil
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "NAME\tAPP\tMODULE\tVER\tEPOCHS\tEVENTS\tCKPTS\tKEYS\tBYTES\tCOMPLETE")
	for _, e := range entries {
		if e.Err != nil {
			fmt.Fprintf(tw, "%s\t(unreadable: %v)\t-\t-\t-\t-\t-\t-\t-\t-\n", e.Name, e.Err)
			continue
		}
		fmt.Fprintf(tw, "%s\t%s\t%016x\t%d\t%d\t%d\t%d\t%d\t%d\t%v\n",
			e.Name, e.Header.App, e.Header.ModuleHash, e.Header.Version,
			e.Epochs, e.Events, e.Checkpoints, e.Keyframes, e.Size, e.Complete)
	}
	return tw.Flush()
}

func cmdVerify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	name := fs.String("name", "", "trace name to verify")
	dir := fs.String("dir", "traces", "trace store directory")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("verify: -name is required")
	}
	st, err := trace.OpenStore(*dir)
	if err != nil {
		return err
	}
	// Resolve through the footer (or scan) and then decode every frame:
	// the full CRC pass over the file's contents, validated against the
	// index when one is present.
	job, err := loadJob(st, *name, core.Options{DelayOnDivergence: true})
	if err != nil {
		return err
	}
	defer job.Handle.Close()
	if _, err := job.Handle.Trace(); err != nil {
		return fmt.Errorf("integrity: %v", err)
	}
	if job.Handle.Summary() == nil {
		fmt.Printf("%s: incomplete trace (no summary frame); replaying best-effort\n", *name)
	}
	results, _ := trace.ReplayBatch([]trace.Job{job}, 1)
	r := results[0]
	if !r.Matched {
		return fmt.Errorf("verify %s: %v", *name, r.Err)
	}
	how := "scanned"
	if job.Handle.Indexed() {
		how = "indexed"
	}
	fmt.Printf("%s: OK — %d epochs, %d events (%s), schedule reproduced (attempts=%d)",
		*name, job.Handle.NumEpochs(), job.Handle.EventCount(), how, r.Report.Stats.LastReplayAttempts)
	if sum := job.Handle.Summary(); sum != nil && !sum.Partial {
		fmt.Printf(", exit/output match recording")
	} else if sum != nil {
		fmt.Printf(", partial summary (no end-of-run oracle)")
	}
	if r.Err != nil {
		fmt.Printf(", recorded fault reproduced (%v)", r.Err)
	}
	fmt.Println()
	return nil
}

// cmdCompact rewrites one stored trace compressed and re-keyframed, in
// place (temp+rename; concurrent readers keep the old bytes).
func cmdCompact(args []string) error {
	fs := flag.NewFlagSet("compact", flag.ExitOnError)
	name := fs.String("name", "", "trace to compact")
	dir := fs.String("dir", "traces", "trace store directory")
	keyEvery := fs.Int("keyframe-every", 0,
		"keyframe interval of the rewritten checkpoint chain (0 = writer default)")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("compact: -name is required")
	}
	st, err := trace.OpenStore(*dir)
	if err != nil {
		return err
	}
	start := time.Now()
	cs, err := st.Compact(*name, *keyEvery)
	if err != nil {
		return err
	}
	fmt.Printf("compacted %s: %d -> %d bytes (%.1f%%), %d epochs, %d checkpoints, wall=%v\n",
		*name, cs.OldBytes, cs.NewBytes, 100*float64(cs.NewBytes)/float64(cs.OldBytes),
		cs.Epochs, cs.Checkpoints, time.Since(start).Round(time.Millisecond))
	return nil
}

// cmdRm deletes one stored trace (and its pin, if any).
func cmdRm(args []string) error {
	fs := flag.NewFlagSet("rm", flag.ExitOnError)
	name := fs.String("name", "", "trace to delete")
	dir := fs.String("dir", "traces", "trace store directory")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("rm: -name is required")
	}
	st, err := trace.OpenStore(*dir)
	if err != nil {
		return err
	}
	if err := st.Remove(*name); err != nil {
		return err
	}
	fmt.Printf("removed %s\n", *name)
	return nil
}

// cmdGC runs one retention pass over the store; pinned traces are exempt.
func cmdGC(args []string) error {
	fs := flag.NewFlagSet("gc", flag.ExitOnError)
	dir := fs.String("dir", "traces", "trace store directory")
	maxMB := fs.Int64("max-mb", 0, "cap summed trace bytes at N MiB, removing oldest unpinned first (0 = unlimited)")
	maxAge := fs.Duration("max-age", 0, "remove unpinned traces not modified within this window (0 = unlimited)")
	fs.Parse(args)
	if *maxMB <= 0 && *maxAge <= 0 {
		return fmt.Errorf("gc: give at least one bound (-max-mb and/or -max-age)")
	}
	st, err := trace.OpenStore(*dir)
	if err != nil {
		return err
	}
	stats, err := st.GC(trace.GCPolicy{MaxBytes: *maxMB << 20, MaxAge: *maxAge})
	if err != nil {
		return err
	}
	fmt.Printf("gc %s: scanned %d, pinned %d, removed %d (%d bytes reclaimed), %d bytes remain\n",
		st.Dir(), stats.Scanned, stats.Pinned, stats.Removed, stats.ReclaimedBytes, stats.RemainingBytes)
	return nil
}

// cmdPin pins or unpins one trace name.
func cmdPin(args []string, pin bool) error {
	verb := "pin"
	if !pin {
		verb = "unpin"
	}
	fs := flag.NewFlagSet(verb, flag.ExitOnError)
	name := fs.String("name", "", "trace name")
	dir := fs.String("dir", "traces", "trace store directory")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("%s: -name is required", verb)
	}
	st, err := trace.OpenStore(*dir)
	if err != nil {
		return err
	}
	if pin {
		err = st.Pin(*name)
	} else {
		err = st.Unpin(*name)
	}
	if err != nil {
		return err
	}
	fmt.Printf("%sned %s\n", verb, *name)
	return nil
}

// cmdTimeline replays one trace segment-parallel with span capture and
// writes the timeline as Chrome trace-event JSON — the offline twin of the
// daemon's GET /api/v1/jobs/{id}/timeline. Load the output in
// chrome://tracing or Perfetto: one track per segment, with the
// fold/decode/execute/stitch stages nested inside each segment span.
func cmdTimeline(args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	name := fs.String("name", "", "trace to replay")
	dir := fs.String("dir", "traces", "trace store directory")
	workers := fs.Int("workers", 0, "segment worker pool size (0 = GOMAXPROCS)")
	out := fs.String("o", "", "output file (default: stdout)")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("timeline: -name is required")
	}
	st, err := trace.OpenStore(*dir)
	if err != nil {
		return err
	}
	job, err := loadJob(st, *name, core.Options{DelayOnDivergence: true})
	if err != nil {
		return err
	}
	defer job.Handle.Close()

	rec := obs.NewRecorder(4096)
	root := rec.Start("segment-replay/" + *name)
	job.Span = root
	_, stats, rerr := trace.ReplaySegments(job, *workers)
	root.End()

	w := io.Writer(os.Stdout)
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	spans, dropped := rec.Snapshot()
	if err := obs.ChromeTrace(w, spans); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "timeline %s: %d/%d segments stitched, %d spans captured (%d dropped); view in chrome://tracing or Perfetto\n",
		*name, stats.Matched, stats.Jobs, len(spans), dropped)
	if rerr != nil {
		return fmt.Errorf("segment replay: %w", rerr)
	}
	return nil
}

// cmdSalvage recovers the flight-recorder ring a crashed (e.g. SIGKILLed)
// run left behind: its clean prefix becomes a stored partial-summary
// suffix trace, and the ring file is removed.
func cmdSalvage(args []string) error {
	fs := flag.NewFlagSet("salvage", flag.ExitOnError)
	name := fs.String("name", "", "ring name (the crashed run's trace name)")
	dir := fs.String("dir", "traces", "trace store directory")
	as := fs.String("as", "", "store the salvaged trace under this name (default: the ring name)")
	fs.Parse(args)
	if *name == "" {
		return fmt.Errorf("salvage: -name is required")
	}
	st, err := trace.OpenStore(*dir)
	if err != nil {
		return err
	}
	out := *as
	if out == "" {
		out = *name
	}
	stats, err := flight.Salvage(flight.RingPath(st, *name), st, out)
	if err != nil {
		return err
	}
	fmt.Printf("salvaged %s: %d epochs (from epoch %d), %d bytes -> %s\n",
		out, stats.Epochs, stats.FirstEpoch, stats.Bytes, st.Path(out))
	return nil
}
