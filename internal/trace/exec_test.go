package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
)

// suffixOf re-encodes the tail of a checkpointed trace from its k-th
// checkpoint on — the shape a flight-recorder spill stores: the leading
// checkpoint (re-keyed as a keyframe by the writer) is the resume point, and
// the summary keeps only the suffix's share of the output.
func suffixOf(t testing.TB, tr *Trace, k int) *Trace {
	t.Helper()
	h := OpenTrace(tr)
	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Header)
	if err != nil {
		t.Fatal(err)
	}
	ci, skipped := k, 0
	for _, ep := range tr.Epochs {
		if ep.Epoch < tr.Checkpoints[k].Epoch() {
			continue
		}
		for ci < len(tr.Checkpoints) && tr.Checkpoints[ci].Epoch() == ep.Epoch {
			full, err := h.CheckpointAt(ci)
			if err != nil {
				t.Fatal(err)
			}
			if ci == k {
				skipped = full.OutputLen
			}
			if err := w.WriteCheckpoint(full); err != nil {
				t.Fatal(err)
			}
			ci++
		}
		if err := w.WriteEpoch(ep); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Finish(&Summary{Exit: tr.Summary.Exit, Output: tr.Summary.Output[skipped:]}); err != nil {
		t.Fatal(err)
	}
	out, err := Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestEntryPointsAgree holds the five entry points to being projections of
// one executor: over an un-checkpointed trace, a checkpointed one and a
// suffix trace, whole replay, whole analysis, segmented replay and
// segmented analysis agree on exit, output, event count and (the two
// analyses) findings to the byte, and ReplayMidSegment is the matching row
// of ReplaySegments. A recorded exit or output the replay does not
// reproduce clears Matched on all four, with the replayed report kept as
// the diagnostic.
func TestEntryPointsAgree(t *testing.T) {
	factory := func() []analysis.Analyzer {
		return []analysis.Analyzer{analysis.NewRaceDetector(), analysis.NewLeakDetector()}
	}
	spec := scaledSpec(t, "streamcluster", 0.5)
	opts := core.Options{Seed: 9, EventCap: 24}
	ck := recordCheckpointed(t, spec, opts, 1)
	if len(ck.Checkpoints) < 4 {
		t.Fatalf("want >= 4 checkpoints, got %d", len(ck.Checkpoints))
	}
	ckJob := segmentJob(t, spec, ck, core.Options{Seed: opts.Seed, EventCap: opts.EventCap, DelayOnDivergence: true})
	sufJob := ckJob
	sufJob.Handle = OpenTrace(suffixOf(t, ck, 2))
	if !sufJob.Handle.LeadingCheckpoint() {
		t.Fatal("suffix trace does not begin at a checkpoint")
	}
	cmod, ctr := recordCorpusTrace(t, "leak-dropped")

	cases := []struct {
		name     string
		job      Job
		segments int
	}{
		{"uncheckpointed", Job{Module: cmod, Handle: OpenTrace(ctr), Opts: core.Options{DelayOnDivergence: true}}, 1},
		{"checkpointed", ckJob, len(ck.Checkpoints) + 1},
		{"suffix", sufJob, len(ck.Checkpoints) - 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			job := c.job
			job.Name = c.name
			ajob := AnalyzeJob{Job: job, NewAnalyzers: factory}
			sum, events := job.Handle.Summary(), job.Handle.EventCount()

			rb, rbStats := ReplayBatch([]Job{job}, 1)
			ab, abStats := AnalyzeBatch([]AnalyzeJob{ajob}, 1)
			rs, rsStats, err := ReplaySegments(job, 2)
			if err != nil {
				t.Fatalf("ReplaySegments: %v", err)
			}
			as, asStats, err := AnalyzeSegments(ajob, 2)
			if err != nil {
				t.Fatalf("AnalyzeSegments: %v", err)
			}
			if !rb[0].Matched || rb[0].Err != nil || !ab[0].Matched || ab[0].Err != nil || !as.Matched || as.Err != nil {
				t.Fatalf("unmatched: ReplayBatch %v, AnalyzeBatch %v, AnalyzeSegments %v", rb[0].Err, ab[0].Err, as.Err)
			}
			if len(rs) != c.segments || len(as.Segments) != c.segments || len(ab[0].Segments) != 1 {
				t.Fatalf("segments: ReplaySegments %d, AnalyzeSegments %d rows, AnalyzeBatch %d rows; want %d, %d, 1",
					len(rs), len(as.Segments), len(ab[0].Segments), c.segments, c.segments)
			}

			outputs := make([]string, len(rs))
			for i, r := range rs {
				outputs[i] = r.Report.Output
			}
			// The programs are race-free: every replay matches at its first
			// attempt, on any host. A retry is a stall verdict on a healthy
			// replay.
			if rbStats.Attempts != 1 || abStats.Attempts != 1 ||
				rsStats.Attempts != int64(len(rs)) || asStats.Attempts != int64(len(rs)) {
				t.Errorf("replay attempts: batch %d, analyze %d, segments %d, segment-analyze %d; want 1, 1, %d, %d",
					rbStats.Attempts, abStats.Attempts, rsStats.Attempts, asStats.Attempts, len(rs), len(rs))
			}
			views := []struct {
				entry  string
				exit   uint64
				output string
				events int64
			}{
				{"ReplayBatch", rb[0].Report.Exit, rb[0].Report.Output, rbStats.Events},
				{"AnalyzeBatch", ab[0].Report.Exit, ab[0].Report.Output, abStats.Events},
				{"ReplaySegments", rs[len(rs)-1].Report.Exit, strings.Join(outputs, ""), rsStats.Events},
				{"AnalyzeSegments", as.Report.Exit, as.Report.Output, asStats.Events},
			}
			for _, v := range views {
				if v.exit != sum.Exit || v.output != sum.Output || v.events != events {
					t.Errorf("%s: exit %d, %d output bytes, %d events; recorded %d, %d, %d",
						v.entry, v.exit, len(v.output), v.events, sum.Exit, len(sum.Output), events)
				}
			}

			whole, err := json.Marshal(ab[0].Findings)
			if err != nil {
				t.Fatal(err)
			}
			segmented, err := json.Marshal(as.Findings)
			if err != nil {
				t.Fatal(err)
			}
			if len(ab[0].Findings) == 0 || !bytes.Equal(whole, segmented) {
				t.Errorf("findings differ between paths:\nwhole:     %s\nsegmented: %s", whole, segmented)
			}
			if c.segments == 1 && as.Segments[0].Merge != 0 {
				// No tape, no state round-trip: the analyzers attached live.
				t.Errorf("one-segment analyze folded for %v", as.Segments[0].Merge)
			}

			mid, midStats, err := ReplayMidSegment(job)
			if err != nil {
				t.Fatalf("ReplayMidSegment: %v", err)
			}
			row := rs[len(rs)/2]
			if mid.Name != row.Name || mid.Seg != row.Seg || mid.FirstEpoch != row.FirstEpoch ||
				mid.LastEpoch != row.LastEpoch || mid.Matched != row.Matched ||
				mid.Report.Exit != row.Report.Exit || mid.Report.Output != row.Report.Output {
				t.Errorf("ReplayMidSegment = %+v, ReplaySegments row = %+v", mid, row)
			}
			if want := as.Segments[len(rs)/2].Events; midStats.Events != want || midStats.Matched != 1 {
				t.Errorf("ReplayMidSegment stats = %+v, want %d events", midStats, want)
			}

			tr, err := job.Handle.Trace()
			if err != nil {
				t.Fatal(err)
			}
			for what, tamper := range map[string]func(*Summary){
				"output": func(s *Summary) { s.Output = "tampered\n" + s.Output },
				"exit":   func(s *Summary) { s.Exit++ },
			} {
				bad, badSum := *tr, *tr.Summary
				tamper(&badSum)
				bad.Summary = &badSum
				ajob.Handle = OpenTrace(&bad)
				rb, rbStats := ReplayBatch([]Job{ajob.Job}, 1)
				ab, abStats := AnalyzeBatch([]AnalyzeJob{ajob}, 1)
				_, _, rsErr := ReplaySegments(ajob.Job, 2)
				as, _, asErr := AnalyzeSegments(ajob, 2)
				if rb[0].Matched || rb[0].Err == nil || rbStats.Failed != 1 || rbStats.Matched != 0 ||
					ab[0].Matched || ab[0].Err == nil || ab[0].Findings != nil || abStats.Failed != 1 ||
					rsErr == nil || asErr == nil || as.Matched || as.Findings != nil {
					t.Errorf("tampered %s accepted: ReplayBatch %v, AnalyzeBatch %v, ReplaySegments %v, AnalyzeSegments %v",
						what, rb[0].Err, ab[0].Err, rsErr, asErr)
				}
				// The replay itself ran to an end, so the failed verdicts still
				// carry what was replayed — the real exit and output.
				for entry, rep := range map[string]*core.Report{
					"ReplayBatch": rb[0].Report, "AnalyzeBatch": ab[0].Report, "AnalyzeSegments": as.Report,
				} {
					if rep == nil || rep.Exit != sum.Exit || rep.Output != sum.Output {
						t.Errorf("tampered %s: %s report = %+v, want the replayed exit and output", what, entry, rep)
					}
				}
			}
		})
	}
}

// TestAnalyzeBatchSharedObservers: concurrent jobs whose Opts.Observers
// share one backing array with spare capacity must each drive only their
// own analyzers — attaching appends to a copy, never into the shared array.
func TestAnalyzeBatchSharedObservers(t *testing.T) {
	shared := make([]core.Observer, 1, 8)
	shared[0] = struct{}{} // implements no observer interface: attached, never called
	var jobs []AnalyzeJob
	for _, name := range []string{"leak-dropped", "noleak-freed"} {
		mod, tr := recordCorpusTrace(t, name)
		jobs = append(jobs, AnalyzeJob{
			Job: Job{Name: name, Module: mod, Handle: OpenTrace(tr),
				Opts: core.Options{DelayOnDivergence: true, Observers: shared}},
			NewAnalyzers: func() []analysis.Analyzer {
				return []analysis.Analyzer{analysis.NewLeakDetector(), analysis.NewProfile()}
			},
		})
	}
	solo := make([][]analysis.Finding, len(jobs))
	for i := range jobs {
		res, stats := AnalyzeBatch(jobs[i:i+1], 1)
		if stats.Failed != 0 {
			t.Fatalf("%s alone: %v", jobs[i].Name, res[0].Err)
		}
		solo[i] = res[0].Findings
	}
	if reflect.DeepEqual(solo[0], solo[1]) {
		t.Fatalf("the two traces produce the same findings; the test cannot tell them apart: %+v", solo[0])
	}
	for round := 0; round < 4; round++ {
		together, stats := AnalyzeBatch(jobs, 2)
		if stats.Failed != 0 {
			t.Fatalf("batch failed: %+v", stats)
		}
		for i := range jobs {
			if !reflect.DeepEqual(together[i].Findings, solo[i]) {
				t.Fatalf("%s: findings changed when run beside another job:\ntogether: %+v\nalone:    %+v",
					jobs[i].Name, together[i].Findings, solo[i])
			}
		}
	}
}
