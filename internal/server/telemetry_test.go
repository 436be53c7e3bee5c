// Telemetry end-to-end: the /metrics exposition must pass the obs linter
// with the route-latency and scheduler histograms present, and a
// segment-replay job's timeline endpoint must serve valid Chrome
// trace-event JSON — one span per segment, each with its four stage
// children — matching the per-segment timing rows in the job result.
package server_test

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/trace"
)

// chromeDoc mirrors the Chrome trace-event JSON the timeline endpoints
// emit, as a client would decode it.
type chromeDoc struct {
	TraceEvents []struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		PID  int               `json:"pid"`
		TID  int               `json:"tid"`
		Args map[string]string `json:"args"`
	} `json:"traceEvents"`
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

func getBody(t *testing.T, c *http.Client, url string) (string, int) {
	t.Helper()
	resp, err := c.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

func TestServerTelemetry(t *testing.T) {
	st, err := trace.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// A checkpointed multi-epoch recording so segment-replay fans out into
	// real segments: the small event cap forces epoch boundaries and the
	// checkpoint interval splits them (streamcluster is host-race-safe).
	if _, err := server.RecordTrace(st, server.RecordRequest{
		App: "streamcluster", Name: "seg", Scale: 0.2, Seed: 9,
		EventCap: 24, CheckpointEvery: 2,
	}, nil); err != nil {
		t.Fatal(err)
	}

	srv, err := server.New(server.Config{Store: st, Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Scheduler().Shutdown()
	c := &client{base: ts.URL, http: ts.Client()}

	info := c.submit(t, `{"kind":"segment-replay","trace":"seg"}`)
	final := c.wait(t, info.ID)
	if final.State != sched.Done {
		t.Fatalf("segment-replay job: %v (%s)", final.State, final.Err)
	}

	// The result payload carries the timing breakdown with one row per
	// segment.
	raw, err := json.Marshal(final.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Segments int `json:"segments"`
		Matched  int `json:"matched"`
		Timing   *struct {
			QueueMS   float64 `json:"queue_ms"`
			ResolveMS float64 `json:"resolve_ms"`
			ExecuteMS float64 `json:"execute_ms"`
			Segments  []struct {
				Seg       int     `json:"seg"`
				ExecuteMS float64 `json:"execute_ms"`
				Matched   bool    `json:"matched"`
			} `json:"segments"`
		} `json:"timing"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Segments < 2 {
		t.Fatalf("expected a multi-segment replay, got %d segments", res.Segments)
	}
	if res.Matched != res.Segments {
		t.Fatalf("only %d of %d segments matched", res.Matched, res.Segments)
	}
	if res.Timing == nil {
		t.Fatal("job result carries no timing breakdown")
	}
	if len(res.Timing.Segments) != res.Segments {
		t.Fatalf("timing has %d segment rows, result reports %d segments",
			len(res.Timing.Segments), res.Segments)
	}
	if res.Timing.ExecuteMS <= 0 {
		t.Fatalf("non-positive execute_ms: %+v", res.Timing)
	}

	t.Run("timeline", func(t *testing.T) {
		body, status := getBody(t, ts.Client(), fmt.Sprintf("%s/api/v1/jobs/%d/timeline", ts.URL, info.ID))
		if status != http.StatusOK {
			t.Fatalf("timeline: status %d: %s", status, body)
		}
		var doc chromeDoc
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("timeline is not valid JSON: %v\n%s", err, body)
		}
		names := make(map[string]int) // name -> count
		segTIDs := make(map[int]bool) // tids of "segment N" spans
		stages := make(map[int]map[string]bool)
		lastTs := -1.0
		for _, ev := range doc.TraceEvents {
			if ev.Ph != "X" {
				t.Fatalf("event %q has phase %q, want X", ev.Name, ev.Ph)
			}
			if ev.Ts < lastTs {
				t.Fatalf("event %q breaks ascending-ts order (%g after %g)", ev.Name, ev.Ts, lastTs)
			}
			lastTs = ev.Ts
			names[ev.Name]++
			if strings.HasPrefix(ev.Name, "segment ") {
				segTIDs[ev.TID] = true
			}
			switch ev.Name {
			case "fold", "decode", "execute", "stitch":
				if stages[ev.TID] == nil {
					stages[ev.TID] = make(map[string]bool)
				}
				stages[ev.TID][ev.Name] = true
			}
		}
		if names["segment-replay/seg"] != 1 {
			t.Fatalf("no root job span in timeline: %v", names)
		}
		if names["queued"] != 1 || names["resolve"] != 1 {
			t.Fatalf("missing queued/resolve children: %v", names)
		}
		nSeg := 0
		for name, n := range names {
			if strings.HasPrefix(name, "segment ") {
				nSeg += n
			}
		}
		if nSeg != res.Segments {
			t.Fatalf("timeline has %d segment spans, job replayed %d segments", nSeg, res.Segments)
		}
		for tid := range segTIDs {
			for _, stage := range []string{"fold", "decode", "execute", "stitch"} {
				if !stages[tid][stage] {
					t.Fatalf("segment track tid=%d lacks stage %q (has %v)", tid, stage, stages[tid])
				}
			}
		}
	})

	t.Run("metrics", func(t *testing.T) {
		body, status := getBody(t, ts.Client(), ts.URL+"/metrics")
		if status != http.StatusOK {
			t.Fatalf("/metrics: status %d", status)
		}
		if problems := obs.LintProm(body); len(problems) != 0 {
			t.Fatalf("/metrics fails exposition lint:\n%s", strings.Join(problems, "\n"))
		}
		for _, want := range []string{
			`ir_served_jobs_total{state="done"} 1`,
			`ir_served_http_request_seconds_bucket{route="jobs_submit",`,
			`ir_served_http_requests_total{route="job_timeline"}`,
			`ir_sched_queue_wait_seconds_bucket{kind="segment-replay",`,
			`ir_sched_run_seconds_bucket{kind="segment-replay",`,
			"ir_served_store_bytes ",
			"ir_trace_checkpoint_fold_seconds_bucket",
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("/metrics lacks %q", want)
			}
		}
	})

	t.Run("debug-spans", func(t *testing.T) {
		body, status := getBody(t, ts.Client(), ts.URL+"/api/v1/debug/spans")
		if status != http.StatusOK {
			t.Fatalf("/api/v1/debug/spans: status %d", status)
		}
		var doc chromeDoc
		if err := json.Unmarshal([]byte(body), &doc); err != nil {
			t.Fatalf("debug spans are not valid JSON: %v", err)
		}
		seen := false
		for _, ev := range doc.TraceEvents {
			if ev.Name == "http jobs_submit" {
				seen = true
			}
		}
		if !seen {
			t.Fatal("request-span ring lacks the http jobs_submit span")
		}
	})

	// Whole-trace jobs run the same executor as a one-segment plan, so they
	// carry the same observability: one timing.segments row covering the
	// whole epoch range (interior checkpoints ignored) and a "segment 0"
	// track with the four stage children.
	for _, kind := range []string{"analyze", "replay"} {
		t.Run("whole-"+kind, func(t *testing.T) {
			info := c.submit(t, fmt.Sprintf(`{"kind":%q,"trace":"seg"}`, kind))
			final := c.wait(t, info.ID)
			if final.State != sched.Done {
				t.Fatalf("%s job: %v (%s)", kind, final.State, final.Err)
			}
			raw, err := json.Marshal(final.Result)
			if err != nil {
				t.Fatal(err)
			}
			var res struct {
				Timing *struct {
					Segments []struct {
						Seg        int     `json:"seg"`
						FirstEpoch int64   `json:"first_epoch"`
						LastEpoch  int64   `json:"last_epoch"`
						ExecuteMS  float64 `json:"execute_ms"`
						MergeMS    float64 `json:"merge_ms"`
						Matched    bool    `json:"matched"`
					} `json:"segments"`
				} `json:"timing"`
			}
			if err := json.Unmarshal(raw, &res); err != nil {
				t.Fatal(err)
			}
			entry, err := st.Entry("seg")
			if err != nil {
				t.Fatal(err)
			}
			if res.Timing == nil || len(res.Timing.Segments) != 1 {
				t.Fatalf("whole-trace %s timing = %+v, want exactly one segment row", kind, res.Timing)
			}
			row := res.Timing.Segments[0]
			if row.Seg != 0 || row.FirstEpoch != 1 || row.LastEpoch != int64(entry.Epochs) ||
				!row.Matched || row.ExecuteMS <= 0 || row.MergeMS != 0 {
				t.Fatalf("whole-trace %s row = %+v (recording has %d epochs)", kind, row, entry.Epochs)
			}

			body, status := getBody(t, ts.Client(), fmt.Sprintf("%s/api/v1/jobs/%d/timeline", ts.URL, info.ID))
			if status != http.StatusOK {
				t.Fatalf("timeline: status %d: %s", status, body)
			}
			var doc chromeDoc
			if err := json.Unmarshal([]byte(body), &doc); err != nil {
				t.Fatalf("timeline is not valid JSON: %v", err)
			}
			names := make(map[string]int)
			segTID := -1
			for _, ev := range doc.TraceEvents {
				names[ev.Name]++
				if ev.Name == "segment 0" {
					segTID = ev.TID
				}
			}
			if names["segment 0"] != 1 {
				t.Fatalf("timeline lacks the one segment track: %v", names)
			}
			for _, ev := range doc.TraceEvents {
				switch ev.Name {
				case "fold", "decode", "execute", "stitch":
					if ev.TID != segTID {
						t.Fatalf("stage %q on track %d, segment 0 is track %d", ev.Name, ev.TID, segTID)
					}
				}
			}
			for _, stage := range []string{"fold", "decode", "execute", "stitch"} {
				if names[stage] != 1 {
					t.Fatalf("segment 0 has %d %q children, want 1 (%v)", names[stage], stage, names)
				}
			}
		})
	}

	t.Run("timeline-unknown-job", func(t *testing.T) {
		_, status := getBody(t, ts.Client(), ts.URL+"/api/v1/jobs/999999/timeline")
		if status != http.StatusNotFound {
			t.Fatalf("unknown-job timeline: status %d, want 404", status)
		}
	})
}

// TestServerSegmentedAnalyze drives the segment-parallel analyze path through
// the HTTP API: a checkpointed recording analyzed with "segments":true must
// report the same findings byte for byte as the whole-trace analyze job, and
// its timing breakdown must carry one row per analysis segment covering the
// epoch range contiguously (leak-dropped is host-race-safe, so this file
// stays -race clean).
func TestServerSegmentedAnalyze(t *testing.T) {
	st, err := trace.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// An aggressively small epoch cap plus a checkpoint at every boundary
	// splits even this short corpus program into several segments.
	if _, err := server.RecordTrace(st, server.RecordRequest{
		App: "leak-dropped", Name: "ck", Seed: 9, EventCap: 4, CheckpointEvery: 1,
	}, nil); err != nil {
		t.Fatal(err)
	}
	entry, err := st.Entry("ck")
	if err != nil {
		t.Fatal(err)
	}
	if entry.Checkpoints < 1 {
		t.Fatalf("recording carries no checkpoints (%d epochs)", entry.Epochs)
	}
	wantSegs := entry.Checkpoints + 1

	srv, err := server.New(server.Config{Store: st, Workers: 2, QueueDepth: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Scheduler().Shutdown()
	c := &client{base: ts.URL, http: ts.Client()}

	whole := c.wait(t, c.submit(t, `{"kind":"analyze","trace":"ck"}`).ID)
	if whole.State != sched.Done {
		t.Fatalf("whole-trace analyze: %v (%s)", whole.State, whole.Err)
	}
	seg := c.wait(t, c.submit(t, `{"kind":"analyze","trace":"ck","segments":true,"workers":4}`).ID)
	if seg.State != sched.Done {
		t.Fatalf("segmented analyze: %v (%s)", seg.State, seg.Err)
	}

	if w, s := resultFindings(t, whole), resultFindings(t, seg); !strings.Contains(string(w), "memory-leak") {
		t.Fatalf("whole-trace findings lack the known leak: %s", w)
	} else if string(w) != string(s) {
		t.Fatalf("findings differ between paths:\nwhole:   %s\nsegment: %s", w, s)
	}

	raw, err := json.Marshal(seg.Result)
	if err != nil {
		t.Fatal(err)
	}
	var res struct {
		Timing *struct {
			ExecuteMS float64 `json:"execute_ms"`
			Segments  []struct {
				Seg        int     `json:"seg"`
				FirstEpoch int64   `json:"first_epoch"`
				LastEpoch  int64   `json:"last_epoch"`
				ExecuteMS  float64 `json:"execute_ms"`
				MergeMS    float64 `json:"merge_ms"`
				Matched    bool    `json:"matched"`
			} `json:"segments"`
		} `json:"timing"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatal(err)
	}
	if res.Timing == nil {
		t.Fatal("segmented analyze result carries no timing breakdown")
	}
	if len(res.Timing.Segments) != wantSegs {
		t.Fatalf("timing has %d segment rows, recording has %d checkpoints",
			len(res.Timing.Segments), entry.Checkpoints)
	}
	next := int64(1)
	for _, row := range res.Timing.Segments {
		if !row.Matched {
			t.Fatalf("segment %d reported unmatched: %+v", row.Seg, row)
		}
		if row.FirstEpoch != next {
			t.Fatalf("segment %d begins at epoch %d, want %d", row.Seg, row.FirstEpoch, next)
		}
		next = row.LastEpoch + 1
	}
	if nonSeg := c.wait(t, c.submit(t, `{"kind":"analyze","trace":"ck","segments":true}`).ID); nonSeg.State != sched.Done {
		t.Fatalf("segmented analyze with default workers: %v (%s)", nonSeg.State, nonSeg.Err)
	}
}
