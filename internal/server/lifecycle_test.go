// Store-lifecycle surface of the trace service: flight-recorder record
// jobs, the per-trace compact route (findings identical pre/post), trace
// deletion with 409 while held, retention GC through the API, and the
// pin-on-finding path that shields reproducing evidence from GC.
package server_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/server"
	"repro/internal/trace"
)

// do issues one request against the API and returns status + body.
func (c *client) do(t *testing.T, method, path, body string) (int, []byte) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	if body != "" {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, b
}

// decodeResult re-marshals a terminal job's result into out.
func decodeResult(t *testing.T, info sched.Info, out any) {
	t.Helper()
	raw, err := json.Marshal(info.Result)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(raw, out); err != nil {
		t.Fatal(err)
	}
}

// TestServerFlightRecordJob records in flight-recorder mode through the
// API: the stored trace is a bounded suffix that replays (whole and
// segment-parallel) through ordinary jobs.
func TestServerFlightRecordJob(t *testing.T) {
	st, err := trace.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: st, Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Scheduler().Shutdown()
	c := &client{base: ts.URL, http: ts.Client()}

	rec := c.submit(t, `{"kind":"record","record":{"app":"streamcluster","name":"flt","scale":0.5,"seed":9,"event_cap":24,"flight_epochs":3}}`)
	final := c.wait(t, rec.ID)
	if final.State != sched.Done {
		t.Fatalf("flight record job: %v (%s)", final.State, final.Err)
	}
	var res server.RecordResult
	decodeResult(t, final, &res)
	if !res.Suffix || res.FirstEpoch == 0 {
		t.Fatalf("flight record result is not a suffix: %+v", res)
	}
	if res.Epochs < 3 || res.Epochs > 6 {
		t.Fatalf("flight record kept %d epochs, want within [3,6]", res.Epochs)
	}

	// The ring itself must not survive the job.
	if status, _ := c.do(t, http.MethodGet, "/api/v1/traces/flt", ""); status != http.StatusOK {
		t.Fatalf("spilled trace not listed: status %d", status)
	}

	for _, body := range []string{
		`{"kind":"replay","trace":"flt"}`,
		`{"kind":"segment-replay","trace":"flt","workers":2}`,
		`{"kind":"analyze","trace":"flt"}`,
	} {
		info := c.submit(t, body)
		if final := c.wait(t, info.ID); final.State != sched.Done {
			t.Fatalf("%s on suffix trace: %v (%s)", body, final.State, final.Err)
		}
	}
}

// TestServerCompactRoute compacts a trace through POST /traces/{name}/compact
// and requires the analyzer findings to be byte-identical before and after —
// the compaction acceptance criterion, through the service surface.
func TestServerCompactRoute(t *testing.T) {
	st := seedStore(t, "leak-dropped")
	ref := referenceFindings(t, st, "leak-dropped")

	srv, err := server.New(server.Config{Store: st, Workers: 2, QueueDepth: 8})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Scheduler().Shutdown()
	c := &client{base: ts.URL, http: ts.Client()}

	status, body := c.do(t, http.MethodPost, "/api/v1/traces/leak-dropped/compact", "")
	if status != http.StatusAccepted {
		t.Fatalf("compact submit: status %d (%s)", status, body)
	}
	var info sched.Info
	if err := json.Unmarshal(body, &info); err != nil {
		t.Fatal(err)
	}
	final := c.wait(t, info.ID)
	if final.State != sched.Done {
		t.Fatalf("compact job: %v (%s)", final.State, final.Err)
	}
	var res server.CompactResult
	decodeResult(t, final, &res)
	if res.Trace != "leak-dropped" || res.OldBytes == 0 || res.NewBytes == 0 || res.Epochs == 0 {
		t.Fatalf("compact result: %+v", res)
	}
	if res.NewBytes >= res.OldBytes {
		t.Errorf("compaction grew the trace: %d -> %d bytes", res.OldBytes, res.NewBytes)
	}

	// The compact route defaults to low priority.
	if !strings.HasPrefix(final.Name, "compact/") {
		t.Errorf("compact job name = %q", final.Name)
	}

	info = c.submit(t, `{"kind":"analyze","trace":"leak-dropped"}`)
	afinal := c.wait(t, info.ID)
	if afinal.State != sched.Done {
		t.Fatalf("analyze after compact: %v (%s)", afinal.State, afinal.Err)
	}
	if got := resultFindings(t, afinal); !bytes.Equal(got, ref) {
		t.Fatalf("findings changed across compaction:\nafter:  %s\nbefore: %s", got, ref)
	}

	// Compacting an unknown trace 404s at submission.
	if status, _ := c.do(t, http.MethodPost, "/api/v1/traces/nope/compact", ""); status != http.StatusNotFound {
		t.Fatalf("compact of missing trace: status %d, want 404", status)
	}
}

// TestServerDeleteTrace: DELETE is refused with 409 while a job holds the
// trace, succeeds once released, and 404s on a missing name.
func TestServerDeleteTrace(t *testing.T) {
	st := seedStore(t, "norace-locked")
	// relay-service replays slowly (think time), so its read hold is
	// observable from the outside.
	if _, err := server.RecordTrace(st, server.RecordRequest{App: "relay-service", Scale: 2}, nil); err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{Store: st, Workers: 1, QueueDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Scheduler().Shutdown()
	c := &client{base: ts.URL, http: ts.Client()}

	if status, _ := c.do(t, http.MethodDelete, "/api/v1/traces/nope", ""); status != http.StatusNotFound {
		t.Fatalf("delete of missing trace: status %d, want 404", status)
	}

	slow := c.submit(t, `{"kind":"replay","trace":"relay-service"}`)
	waitState(t, c, slow.ID, sched.Running)
	time.Sleep(100 * time.Millisecond) // the hold lands as the job's first statement
	if status, _ := c.do(t, http.MethodDelete, "/api/v1/traces/relay-service", ""); status != http.StatusConflict {
		t.Fatalf("delete of held trace: status %d, want 409", status)
	}
	c.cancel(t, slow.ID)
	c.wait(t, slow.ID)

	if status, body := c.do(t, http.MethodDelete, "/api/v1/traces/relay-service", ""); status != http.StatusOK {
		t.Fatalf("delete after release: status %d (%s)", status, body)
	}
	if status, _ := c.do(t, http.MethodGet, "/api/v1/traces/relay-service", ""); status != http.StatusNotFound {
		t.Fatalf("deleted trace still listed: status %d", status)
	}
}

// TestServerGCAndPinOnFinding: an analyze job with findings pins its trace;
// a manual GC pass under a 1-byte cap then reclaims every unpinned trace
// and nothing else.
func TestServerGCAndPinOnFinding(t *testing.T) {
	st := seedStore(t, "leak-dropped", "norace-locked")
	srv, err := server.New(server.Config{
		Store: st, Workers: 2, QueueDepth: 8,
		GC: trace.GCPolicy{MaxBytes: 1}, // background loop ticks at DefaultGCInterval — never during this test
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	defer srv.Scheduler().Shutdown()
	c := &client{base: ts.URL, http: ts.Client()}

	// leak-dropped has findings -> pinned; norace-locked is clean -> not.
	for _, name := range []string{"leak-dropped", "norace-locked"} {
		info := c.submit(t, fmt.Sprintf(`{"kind":"analyze","trace":%q}`, name))
		final := c.wait(t, info.ID)
		if final.State != sched.Done {
			t.Fatalf("analyze %s: %v (%s)", name, final.State, final.Err)
		}
		var res server.AnalyzeJobResult
		decodeResult(t, final, &res)
		if want := name == "leak-dropped"; res.Pinned != want {
			t.Fatalf("analyze %s: pinned=%v, want %v (findings: %d)", name, res.Pinned, want, len(res.Findings))
		}
	}
	pins, err := st.Pins()
	if err != nil {
		t.Fatal(err)
	}
	if !pins["leak-dropped"] || pins["norace-locked"] {
		t.Fatalf("pins after analysis: %v", pins)
	}

	status, body := c.do(t, http.MethodPost, "/api/v1/gc", "")
	if status != http.StatusOK {
		t.Fatalf("gc: status %d (%s)", status, body)
	}
	var stats trace.GCStats
	if err := json.Unmarshal(body, &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Scanned != 2 || stats.Pinned != 1 || stats.Removed != 1 || stats.ReclaimedBytes == 0 {
		t.Fatalf("gc stats: %+v", stats)
	}

	// The pinned evidence survived; the clean trace did not.
	if status, _ := c.do(t, http.MethodGet, "/api/v1/traces/leak-dropped", ""); status != http.StatusOK {
		t.Fatalf("pinned trace reclaimed by GC: status %d", status)
	}
	if status, _ := c.do(t, http.MethodGet, "/api/v1/traces/norace-locked", ""); status != http.StatusNotFound {
		t.Fatalf("unpinned trace survived a 1-byte cap: status %d", status)
	}

	// /metrics reflects the lifecycle state.
	_, metrics := c.do(t, http.MethodGet, "/metrics", "")
	for _, want := range []string{
		"ir_served_store_pinned_traces 1",
		"ir_served_gc_runs_total 1",
		"ir_served_store_traces 1",
	} {
		if !strings.Contains(string(metrics), want) {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}
}
