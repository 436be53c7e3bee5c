package trace

// The replay executor: plan → execute → fold.
//
// The paper has one replay mechanism — roll back, re-execute against the
// lists, check divergence — and its tools are that replay with something
// attached. This file is that mechanism for stored traces. Everything the
// package offers for re-executing a recording is a projection of one path:
//
//   - A plan is a list of segments: contiguous epoch ranges, each bounded by
//     the checkpoint it resumes from and the checkpoint it must land on.
//     planSegments cuts the trace at every checkpoint frame; planWhole is the
//     one-segment plan that ignores interior checkpoints. Planning reads only
//     the index — no decode.
//   - execSegment runs one segment: fold the bounding checkpoints, decode the
//     epoch range in bounded windows, execute through the divergence-checking
//     replay path, stitch (interior segments byte-match their end checkpoint
//     inside the replay; the final one checks the recorded exit).
//   - execute runs a plan and folds the outcome: stats, the stitched-output
//     oracle, the analyzers' findings. Analysis is replay with observers; a
//     replay is an analysis with the empty analyzer set.
//
// How analyzers attach is decided by the plan's length, which the code
// observes rather than being told. Analyzer state is prefix state — a race
// detector's vector clocks or a leak detector's site table only mean
// anything with everything since the plan's start folded in. A plan of one
// segment has no prefix problem: it runs inline on the caller's goroutine
// with the analyzer chain attached live. A plan of several segments fans
// out on the worker pool with only an analysis.Tape attached to each (cheap
// event capture, no analyzer math; stacks are symbolized here, in
// parallel), and a sequential fold re-delivers the tapes in segment order
// into one chain, pipelined against the replays still executing. At every
// interior boundary the fold round-trips the chain through the
// StateCheckpointer codecs — the propagated state chain of a multi-node
// design exercised in-process, so the codecs are proven on every segmented
// analyze rather than rotting until a fleet exists.
//
// Findings come out equal on both routes because every segment boundary is
// an epoch boundary — a globally quiescent point — so the concatenated
// tapes form a legal observation order of the whole execution (see the
// analysis.Tape doc comment), and the race report is canonicalized so
// observation order inside a racing pair does not show through. Finish
// passes (the leak detector's program-end scan) run against the final
// segment's completed runtime, whose memory image the stitching checks have
// already tied to the recording.
//
// A recorded trace is a self-contained, read-only artifact, so N traces —
// or N re-replays of one trace, the verification fan-out — are
// embarrassingly parallel: each worker builds its own runtime, virtual
// address space and virtual OS. Jobs carry Handles, not decoded traces:
// each worker streams the epochs it needs through the store's frame cache,
// so a queued or fanned-out job pins no decoded memory until it runs, and a
// running one pins a window, not the recording.

import (
	"errors"
	"fmt"
	"strings"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/sched"
	"repro/internal/tir"
)

// Job is one offline replay: a trace handle plus the module it was
// recorded from.
type Job struct {
	// Name labels the job in results ("<trace>#<i>" for fan-out copies).
	Name string
	// Module is the program; its fingerprint must match the trace header's
	// ModuleHash (checked unless the hash is zero).
	Module *tir.Module
	// Handle is the recording to re-execute — opened from a store
	// (Store.Open), from bytes (OpenBytes), or wrapped around an in-memory
	// trace (OpenTrace). Workers fetch epochs through it on demand; nothing
	// it serves is mutated.
	Handle *Handle
	// Opts configures the replay runtime (MaxReplays, DelayOnDivergence,
	// and the list capacities / memory config of the recording run).
	Opts core.Options
	// Setup recreates recording-time OS state (input files); may be nil. It
	// runs only for a segment that starts at program start — later segments
	// restore the OS state from their checkpoint.
	Setup func(*core.Runtime) error
	// Span, when non-nil, is the parent span job execution records under:
	// one child span per executed segment (a whole-trace job has exactly
	// one) with fold/decode/execute/stitch grandchildren. A nil Span
	// disables span recording.
	Span *obs.Span
}

// Result is one job's outcome.
type Result struct {
	Name   string
	Report *core.Report
	// Err is non-nil when the replay failed to match (or the job was
	// malformed); a reproduced fault from a fault-terminated trace counts as
	// a match and is reported through Report with Err describing the fault.
	Err error
	// Matched reports whether the recorded schedule was reproduced.
	Matched bool
	Wall    time.Duration
}

// BatchStats aggregates a batch.
type BatchStats struct {
	Jobs    int
	Matched int
	Failed  int
	// Attempts is the summed replay attempts (1 per job when nothing
	// diverged; divergence retries add to it).
	Attempts int64
	// Events is the total recorded events replayed across matched jobs.
	Events int64
	// Work is summed per-job wall time; Elapsed is the batch's wall time.
	// Work/Elapsed approximates the achieved parallel speedup.
	Work    time.Duration
	Elapsed time.Duration
}

// tally counts one finished unit — a segment of a plan, or a job of a
// batch — into the stats.
func (s *BatchStats) tally(matched bool, events int64, rep *core.Report, wall time.Duration) {
	s.Jobs++
	s.Work += wall
	if !matched {
		s.Failed++
		return
	}
	s.Matched++
	s.Events += events
	if rep != nil {
		s.Attempts += int64(rep.Stats.LastReplayAttempts)
	}
}

// AnalyzeJob is one replay-with-analysis: a replay job plus an analyzer
// factory.
type AnalyzeJob struct {
	Job
	// NewAnalyzers builds this job's analyzer set. It is invoked on the
	// job's goroutine — once, plus once per interior segment boundary of a
	// segmented analyze — so a shared factory must be safe for concurrent
	// calls (returning fresh analyzers each time, as analysis.FromSpec
	// composition does).
	NewAnalyzers func() []analysis.Analyzer
}

// AnalyzeResult is one job's outcome: the replay verdict plus the findings.
type AnalyzeResult struct {
	Name string
	// Report is the final segment's replay report with Output holding the
	// whole execution's output (the segments' outputs stitched in order).
	// It is present whenever the replay ran to an end, matched or not.
	Report *core.Report
	// Findings aggregates every attached analyzer's report.
	Findings []analysis.Finding
	// Matched reports whether the recorded schedule (and summary, when
	// present) was reproduced; findings from an unmatched replay are not
	// produced.
	Matched bool
	// Err carries a failure to match — or, on a matched replay of a
	// fault-terminated trace, the reproduced fault.
	Err  error
	Wall time.Duration
	// Segments carries one attribution row per executed segment; a
	// whole-trace job has exactly one.
	Segments []SegmentAttribution
}

// SegmentResult is one segment's replay outcome.
type SegmentResult struct {
	// Name is "<job>@<first>-<last>" (1-based epoch range).
	Name string
	// Seg is the segment index (0 = from program start).
	Seg int
	// FirstEpoch/LastEpoch bound the replayed epoch range, inclusive.
	FirstEpoch, LastEpoch int64
	// Report is the segment's replay report; Output holds only the output
	// attributed to this segment.
	Report *core.Report
	// Matched reports schedule reproduction plus the segment's stitching
	// check (interior) or oracle check (final).
	Matched bool
	Err     error
	Wall    time.Duration
	// Stage durations, summing to roughly Wall: Fold is the checkpoint
	// folds bounding the segment, Decode the epoch-range fetch, Exec the
	// replay execution, Stitch the final-segment oracle check (interior
	// segments byte-match their end checkpoint inside Exec).
	Fold, Decode, Exec, Stitch time.Duration
}

// SegmentAttribution is one segment's share of an analyze: where the wall
// time went, visible in AnalyzeResult and mirrored into the job timing
// breakdown so slow-segment skew shows up without a timeline download.
type SegmentAttribution struct {
	// Seg is the segment index (0 = from program start).
	Seg int `json:"seg"`
	// FirstEpoch/LastEpoch bound the segment's epoch range, inclusive.
	FirstEpoch int64 `json:"first_epoch"`
	LastEpoch  int64 `json:"last_epoch"`
	// Events counts the recorded events the segment re-executed.
	Events int64 `json:"events"`
	// Wall is the segment replay's wall time; Fold, Decode, and Exec are its
	// stages (checkpoint folds, epoch-range fetch, execution with the
	// analyzers or a tape attached).
	Wall   time.Duration `json:"wall"`
	Fold   time.Duration `json:"fold"`
	Decode time.Duration `json:"decode"`
	Exec   time.Duration `json:"exec"`
	// Merge is the sequential fold's share: tape re-delivery into the
	// analyzer chain plus, on interior boundaries, the analyzer state
	// round-trip. Zero when the analyzers were attached live (a one-segment
	// plan).
	Merge time.Duration `json:"merge"`
}

// Fanout clones a job n times ("#0" … "#n-1"), the re-replay verification
// pattern. The clones share the handle — and therefore the store's frame
// cache — so while the trace's decoded frames fit the cache budget the
// fan-out decodes each epoch once, not n times. A trace whose decoded
// size exceeds the budget re-decodes per replay instead (the budget is
// the bound the daemon relies on; raise it with Store.SetCacheLimit when
// fan-out throughput on one oversized trace matters more than memory).
func Fanout(j Job, n int) []Job {
	out := make([]Job, n)
	for i := range out {
		out[i] = j
		out[i].Name = fmt.Sprintf("%s#%d", j.Name, i)
	}
	return out
}

// --- entry points: each a projection of execute ---

// noAnalyzers is the empty analyzer set: a replay is an analysis that
// attaches nothing.
func noAnalyzers() []analysis.Analyzer { return nil }

// ReplayBatch fans jobs across a worker pool and blocks until every job
// finished. workers <= 0 selects GOMAXPROCS. Each job replays its whole
// trace as one segment — from the leading checkpoint when the trace is a
// suffix (a flight-recorder spill), from program start otherwise — ignoring
// interior checkpoints. Results are returned in job order.
func ReplayBatch(jobs []Job, workers int) ([]Result, BatchStats) {
	ajobs := make([]AnalyzeJob, len(jobs))
	for i := range jobs {
		ajobs[i] = AnalyzeJob{Job: jobs[i], NewAnalyzers: noAnalyzers}
	}
	aresults, stats := AnalyzeBatch(ajobs, workers)
	results := make([]Result, len(aresults))
	for i, r := range aresults {
		results[i] = Result{Name: r.Name, Report: r.Report, Err: r.Err, Matched: r.Matched, Wall: r.Wall}
	}
	return results, stats
}

// AnalyzeBatch is the analyze-many half of the record-once/analyze-many
// workflow: it fans analysis jobs across the shared worker pool and blocks
// until every job finished. Each job re-executes its whole trace once, as
// ReplayBatch does, with a fresh analyzer set attached live (analyzers are
// stateful, so jobs never share them). workers <= 0 selects GOMAXPROCS.
// Results are returned in job order; BatchStats counts jobs (Events counts
// recorded events re-executed under analysis).
func AnalyzeBatch(jobs []AnalyzeJob, workers int) ([]AnalyzeResult, BatchStats) {
	results := make([]AnalyzeResult, len(jobs))
	perJob := make([]BatchStats, len(jobs))
	var stats BatchStats
	stats.Elapsed = sched.RunPool(len(jobs), workers, func(i int) {
		results[i], perJob[i] = jobs[i].run(true, 1)
	})
	for i := range results {
		r := &results[i]
		stats.tally(r.Matched, perJob[i].Events, r.Report, r.Wall)
	}
	return results, stats
}

// ReplaySegments replays one checkpointed trace segment-parallel: the
// trace is split at its checkpoint frames (planned from the index, no
// decode), the segments fan out across the worker pool (workers <= 0
// selects GOMAXPROCS) with each worker decoding only its own range and
// folding only the checkpoints bounding it, and the results are stitched:
// every interior segment's end memory image must byte-match the next
// checkpoint and its output volume the checkpoint's attribution; the final
// segment checks the recorded exit, and the segments' outputs concatenated
// in order must reproduce the recorded output. Each segment carries the
// paper's one-segment divergence-retry bound (a retry rolls back to the
// segment's start checkpoint, not to program start). A trace without
// checkpoint frames yields a single whole-program segment — identical to
// an ordinary replay. Results are in segment order; the error reports the
// first failure, if any.
func ReplaySegments(j Job, workers int) ([]SegmentResult, BatchStats, error) {
	plans, err := j.plan(false)
	if err != nil {
		return nil, BatchStats{}, err
	}
	o := execute(&j, plans, workers, noAnalyzers)
	return o.segs, o.stats, o.err
}

// ReplayMidSegment replays only the middle segment of a checkpointed
// trace — the cold-start shape: an open store, one segment's checkpoints
// folded and epochs decoded, and nothing else touched. It is the probe
// behind BenchmarkSegmentColdStart and irbench's coldstart_segment_ms;
// interior segments verify by byte-matching their end checkpoint exactly
// as in ReplaySegments.
func ReplayMidSegment(j Job) (SegmentResult, BatchStats, error) {
	plans, err := j.plan(false)
	if err != nil {
		return SegmentResult{}, BatchStats{}, err
	}
	mid := len(plans) / 2
	o := execute(&j, plans[mid:mid+1], 1, noAnalyzers)
	return o.segs[0], o.stats, o.err
}

// AnalyzeSegments analyzes one checkpointed trace segment-parallel and
// returns a whole-trace result: findings equal to AnalyzeBatch's (the race
// report is canonical, so equality is byte-level after the detector's own
// deterministic sort), with per-segment attribution rows alongside. The
// trace is split at its checkpoint frames exactly like ReplaySegments;
// workers <= 0 selects GOMAXPROCS. A trace without checkpoints is a
// one-segment plan — the same execution AnalyzeBatch performs.
func AnalyzeSegments(j AnalyzeJob, workers int) (AnalyzeResult, BatchStats, error) {
	res, stats := j.run(false, workers)
	if !res.Matched {
		return res, stats, res.Err
	}
	return res, stats, nil
}

// run plans and executes one analyze job and projects the outcome onto its
// result.
func (j *AnalyzeJob) run(whole bool, workers int) (res AnalyzeResult, stats BatchStats) {
	start := time.Now()
	res = AnalyzeResult{Name: j.Name}
	defer func() { res.Wall = time.Since(start) }()
	if j.NewAnalyzers == nil {
		res.Err = fmt.Errorf("trace: analyze job %q has no analyzer factory", j.Name)
		return res, stats
	}
	plans, err := j.plan(whole)
	if err != nil {
		res.Err = err
		return res, stats
	}
	o := execute(&j.Job, plans, workers, j.NewAnalyzers)
	res.Segments, res.Report = o.attrib, o.report
	if o.err != nil {
		// Findings derived from a divergent or unstitchable execution are
		// not evidence about the recorded run; the report stays, as the
		// diagnostic of what was replayed instead.
		res.Err = o.err
		return res, o.stats
	}
	res.Findings, res.Matched, res.Err = o.findings, true, o.fault
	return res, o.stats
}

// --- plan ---

// segPlan is one scheduled slice of the trace: an epoch range plus the
// checkpoint ordinals bounding it (-1 = none).
type segPlan struct {
	seg         int   // position in the trace's full plan
	first, last int64 // epoch range, inclusive
	events      int64
	startCk     int // checkpoint the segment resumes from; -1 for program start
	endCk       int // checkpoint the segment must reach; -1 for the final one
}

// plan checks that a job is runnable — module and trace handle present,
// module fingerprint matching the recording — and partitions its trace:
// one whole-trace segment, or one segment per checkpoint interval.
func (j *Job) plan(whole bool) ([]segPlan, error) {
	if j.Module == nil || j.Handle == nil {
		return nil, fmt.Errorf("trace: job %q lacks a module or trace handle", j.Name)
	}
	if h := j.Handle.Header().ModuleHash; h != 0 {
		if got := tir.Fingerprint(j.Module); got != h {
			return nil, fmt.Errorf("trace: job %q module fingerprint %#x does not match trace %#x",
				j.Name, got, h)
		}
	}
	if whole {
		return planWhole(j.Handle)
	}
	return planSegments(j.Handle.idx)
}

// planWhole is the one-segment plan: the trace's whole epoch range,
// resuming from the leading checkpoint of a suffix trace and from program
// start otherwise. Interior checkpoints are ignored.
func planWhole(h *Handle) ([]segPlan, error) {
	first, last := h.EpochRange()
	if first == 0 {
		return nil, errors.New("trace: trace has no epochs")
	}
	p := segPlan{first: first, last: last, events: h.EventCount(), startCk: -1, endCk: -1}
	if h.LeadingCheckpoint() {
		p.startCk = 0
	}
	return []segPlan{p}, nil
}

// planSegments partitions a trace's epoch range at its checkpoints, from
// the index alone:
//
//	segment 0: program start      .. checkpoint 1
//	segment i: checkpoint i       .. checkpoint i+1
//	segment m: checkpoint m       .. program end
func planSegments(ix *fileIndex) ([]segPlan, error) {
	plans := make([]segPlan, 0, len(ix.ckpts)+1)
	cur := segPlan{startCk: -1, endCk: -1}
	ci := 0
	for i := range ix.epochs {
		seq := ix.epochs[i].seq
		for ci < len(ix.ckpts) && ix.ckpts[ci].epoch == seq {
			if cur.first == 0 {
				if len(plans) == 0 && ci == 0 && cur.startCk == -1 {
					// Suffix trace: a checkpoint at the very first epoch frame
					// is the recording's resume point (a flight-recorder
					// spill), not an empty segment — it bounds segment 0 the
					// way an interior checkpoint bounds the segment after it.
					cur.startCk = 0
					ci++
					continue
				}
				return nil, fmt.Errorf("trace: empty segment before checkpoint at epoch %d", seq)
			}
			cur.endCk = ci
			plans = append(plans, cur)
			cur = segPlan{seg: len(plans), startCk: ci, endCk: -1}
			ci++
		}
		if cur.first == 0 {
			cur.first = seq
		} else if seq != cur.last+1 {
			return nil, fmt.Errorf("trace: non-contiguous epochs %d..%d", cur.last, seq)
		}
		cur.last = seq
		cur.events += ix.epochs[i].events
	}
	if ci != len(ix.ckpts) {
		return nil, fmt.Errorf("trace: checkpoint at epoch %d beyond the last epoch frame", ix.ckpts[ci].epoch)
	}
	if cur.first == 0 {
		return nil, errors.New("trace: trace has no epochs")
	}
	plans = append(plans, cur)
	return plans, nil
}

// --- execute ---

// decodeWindow bounds how many decoded epoch frames a segment holds at
// once: the flattener folds each window into the replay-ready lists and
// releases it, so a store handle's frame cache — not the worker — decides
// what stays resident.
const decodeWindow = 16

// execSegment runs one segment — fold, decode, execute, stitch — with extra
// observers attached, recording a "segment N" span with one child per
// stage. It is the only place the package builds or runs a core.Runtime.
// The completed runtime is returned for a matched final segment (analyzer
// Finish passes read its end state) and nil otherwise; every runtime it
// does not return gives its address space back before it returns.
func execSegment(j *Job, plan *segPlan, extra []core.Observer) (res SegmentResult, rt *core.Runtime) {
	res = SegmentResult{
		Name:       fmt.Sprintf("%s@%d-%d", j.Name, plan.first, plan.last),
		Seg:        plan.seg,
		FirstEpoch: plan.first,
		LastEpoch:  plan.last,
	}
	start := time.Now()
	// One span per segment on its own timeline track. All of it no-ops when
	// the job carries no span.
	sp := j.Span.ChildAt(fmt.Sprintf("segment %d", plan.seg), start)
	sp.SetTID(plan.seg + 1)
	sp.SetAttr("epochs", fmt.Sprintf("%d-%d", plan.first, plan.last))
	defer func() {
		res.Wall = time.Since(start)
		sp.SetAttr("matched", fmt.Sprintf("%t", res.Matched))
		sp.End()
	}()
	stage := func(name string, from time.Time, d *time.Duration) {
		*d = time.Since(from)
		sp.Record(name, from, from.Add(*d))
	}

	var startCk, endCk *core.Checkpoint
	var err error
	from := time.Now()
	if plan.startCk >= 0 {
		if startCk, err = j.Handle.CheckpointAt(plan.startCk); err != nil {
			res.Err = err
			return res, nil
		}
	}
	if plan.endCk >= 0 {
		if endCk, err = j.Handle.CheckpointAt(plan.endCk); err != nil {
			res.Err = err
			return res, nil
		}
	}
	stage("fold", from, &res.Fold)

	from = time.Now()
	f := record.NewFlattener()
	for lo := plan.first; lo <= plan.last; lo += decodeWindow {
		epochs, err := j.Handle.Epochs(lo, min(lo+decodeWindow-1, plan.last))
		if err != nil {
			res.Err = err
			return res, nil
		}
		for _, ep := range epochs {
			f.Add(ep)
		}
	}
	fl, err := f.Flat()
	if err != nil {
		res.Err = err
		return res, nil
	}
	stage("decode", from, &res.Decode)

	from = time.Now()
	opts := j.Opts
	// Copied, never appended in place: fan-out clones share the job's
	// Observers backing array.
	opts.Observers = append(append([]core.Observer(nil), j.Opts.Observers...), extra...)
	run, err := core.PrepareReplayFlatAt(j.Module, startCk, fl, endCk, opts)
	if err != nil {
		res.Err = err
		return res, nil
	}
	defer func() {
		if rt != run {
			run.Release()
		}
	}()
	if startCk == nil && j.Setup != nil {
		if err := j.Setup(run); err != nil {
			run.Shutdown()
			res.Err = err
			return res, nil
		}
	}
	rep, err := run.RunReplay()
	stage("execute", from, &res.Exec)
	res.Report = rep
	if rep == nil {
		// No report at all: the replay never matched.
		res.Err = err
		return res, nil
	}
	res.Matched = true
	res.Err = err // a reproduced fault arrives here, alongside the report

	from = time.Now()
	switch sum := j.Handle.Summary(); {
	case endCk != nil:
		// Interior segment: RunReplay already byte-matched the end
		// checkpoint, and nothing downstream reads this runtime.
	case sum != nil && !sum.Partial && rep.Exit != sum.Exit:
		// Final segment: the recorded exit value is the oracle (output is
		// stitched across all segments by execute). A partial summary — the
		// recording stopped before program end — carries no oracle.
		res.Matched = false
		res.Err = fmt.Errorf("trace: final segment replayed exit %d, recorded %d", rep.Exit, sum.Exit)
	default:
		rt = run
	}
	stage("stitch", from, &res.Stitch)
	return res, rt
}

// outcome is everything one executed plan yields; each entry point projects
// the fields its result type carries.
type outcome struct {
	segs   []SegmentResult
	attrib []SegmentAttribution
	stats  BatchStats
	// err is the first failure — a segment that did not match, an analyzer
	// state fold that broke, or a stitched-output mismatch; nil means the
	// plan reproduced the recording.
	err error
	// report is the final segment's report with Output replaced by the
	// plan's stitched output. It is set whenever the final segment replayed
	// to an end, so a failed oracle check still shows what was replayed.
	report *core.Report
	// findings and fault (a reproduced recorded fault, joined with any
	// analyzer Finish errors) are set only when err is nil.
	findings []analysis.Finding
	fault    error
}

// execute runs a plan's segments and folds their results: per-segment
// stats and attribution, the stitched-output oracle, and the findings of a
// fresh factory-built analyzer chain. A one-segment plan runs inline with
// the chain attached live; a longer one fans out across the worker pool
// (workers <= 0 selects GOMAXPROCS) with a tape per segment, consumed in
// segment order as segments complete.
func execute(j *Job, plans []segPlan, workers int, factory func() []analysis.Analyzer) (o outcome) {
	start := time.Now()
	n := len(plans)
	chain := factory()
	analyzing := len(chain) > 0
	o.segs = make([]SegmentResult, n)
	o.attrib = make([]SegmentAttribution, 0, n)
	rts := make([]*core.Runtime, n)
	// The plan owns the runtimes its segments hand back; they are released
	// once the Finish passes below have read them, on every return path.
	defer func() {
		for _, rt := range rts {
			if rt != nil {
				rt.Release()
			}
		}
	}()

	// consume folds segment i into the outcome; it is called in segment
	// order. tape is nil when nothing was captured for the segment.
	var foldSp *obs.Span
	consume := func(i int, tape *analysis.Tape) {
		s := &o.segs[i]
		at := SegmentAttribution{
			Seg: s.Seg, FirstEpoch: s.FirstEpoch, LastEpoch: s.LastEpoch,
			Events: plans[i].events,
			Wall:   s.Wall, Fold: s.Fold, Decode: s.Decode, Exec: s.Exec,
		}
		o.stats.tally(s.Matched, plans[i].events, s.Report, s.Wall)
		if analyzing {
			obs.AnalysisSegment.Observe(s.Wall.Seconds())
		}
		switch {
		case !s.Matched:
			if o.err == nil {
				o.err = fmt.Errorf("segment %s: %w", s.Name, s.Err)
			}
		case o.err == nil && tape != nil:
			mergeStart := time.Now()
			tape.Replay(chain)
			if i < n-1 {
				foldStart := time.Now()
				var err error
				if chain, err = foldAnalyzerState(chain, factory); err != nil {
					o.err = fmt.Errorf("segment %s: %w", s.Name, err)
				}
				obs.AnalysisStateFold.Observe(time.Since(foldStart).Seconds())
			}
			at.Merge = time.Since(mergeStart)
			obs.AnalysisMerge.Observe(at.Merge.Seconds())
			foldSp.Record(fmt.Sprintf("merge %d", s.Seg), mergeStart, mergeStart.Add(at.Merge))
		}
		o.attrib = append(o.attrib, at)
	}

	if n == 1 {
		live := make([]core.Observer, len(chain))
		for i, a := range chain {
			live[i] = a
		}
		o.segs[0], rts[0] = execSegment(j, &plans[0], live)
		consume(0, nil)
		o.stats.Elapsed = time.Since(start)
	} else {
		var elapsed time.Duration
		// Tapes are captured only when there is an analyzer to fold them
		// into; a segmented replay attaches nothing.
		tapes := make([]*analysis.Tape, n)
		done := make([]chan struct{}, n)
		for i := range done {
			done[i] = make(chan struct{})
		}
		poolDone := make(chan struct{})
		go func() {
			defer close(poolDone)
			elapsed = sched.RunPool(n, workers, func(i int) {
				defer close(done[i])
				var extra []core.Observer
				if analyzing {
					tapes[i] = analysis.NewTape()
					extra = []core.Observer{tapes[i]}
				}
				o.segs[i], rts[i] = execSegment(j, &plans[i], extra)
			})
		}()
		if analyzing {
			foldSp = j.Span.Child("analyzer fold")
			foldSp.SetTID(n + 1)
		}
		for i := range plans {
			<-done[i]
			consume(i, tapes[i])
			tapes[i] = nil // folded (or abandoned); release the event buffer
		}
		foldSp.End()
		<-poolDone
		o.stats.Elapsed = elapsed
	}

	final := &o.segs[n-1]
	if final.Report == nil {
		return o // the final segment never replayed to an end; o.err says why
	}
	var stitched strings.Builder
	for i := range o.segs {
		if rep := o.segs[i].Report; rep != nil {
			stitched.WriteString(rep.Output)
		}
	}
	report := *final.Report
	report.Output = stitched.String()
	o.report = &report
	if o.err != nil {
		return o
	}
	// The stitched-output oracle applies when the plan covers the whole
	// recording: the segments' re-emitted outputs, concatenated in order,
	// must reproduce the recorded program output exactly. (Each interior
	// segment's volume was already checked against its end checkpoint's
	// attribution; this catches content-level mismatches across the run.)
	if sum := j.Handle.Summary(); plans[0].seg == 0 && plans[n-1].endCk < 0 &&
		sum != nil && !sum.Partial && report.Output != sum.Output {
		o.err = fmt.Errorf("trace: stitched output (%d bytes) differs from recording (%d bytes)",
			len(report.Output), len(sum.Output))
		o.stats.Failed++
		return o
	}
	// Finish passes (the leak detector's program-end scan) run against the
	// final segment's completed runtime; a reproduced fault from the final
	// segment rides along.
	o.findings, o.fault = analysis.Collect(rts[n-1], chain, final.Err)
	return o
}

// foldAnalyzerState round-trips the analyzer chain's accumulated state
// through the analyzers' state codecs into a fresh factory-built set — the
// interior-boundary handoff of a propagated state chain.
func foldAnalyzerState(chain []analysis.Analyzer, factory func() []analysis.Analyzer) ([]analysis.Analyzer, error) {
	var buf []byte
	for _, a := range chain {
		buf = a.AppendState(buf)
	}
	fresh := factory()
	if len(fresh) != len(chain) {
		return nil, fmt.Errorf("trace: analyzer factory returned %d analyzers, state chain carries %d",
			len(fresh), len(chain))
	}
	rest := buf
	for i, a := range fresh {
		if a.Name() != chain[i].Name() {
			return nil, fmt.Errorf("trace: analyzer factory order changed (%q where state chain has %q)",
				a.Name(), chain[i].Name())
		}
		var err error
		if rest, err = a.DecodeState(rest); err != nil {
			return nil, fmt.Errorf("trace: analyzer state chain: %w", err)
		}
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("trace: %d trailing bytes in analyzer state chain", len(rest))
	}
	return fresh, nil
}
