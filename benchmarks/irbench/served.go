package main

// The daemon phase: an in-process server.New behind httptest, driven
// through its HTTP API by closed-loop clients — API callers wait for their
// job, so each client submits, streams the job to its terminal state, and
// only then submits the next.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/server"
	"repro/internal/trace"
)

// jobMix is the daemon round's job mix, in tenths: analyze is the dominant
// job type of the record-once/analyze-many workflow, and the record jobs
// put writes (cache invalidation, index rewrite) beside the reads.
var jobMix = []struct {
	kind   string
	tenths int
}{{"analyze", 5}, {"replay", 3}, {"segment-replay", 1}, {"record", 1}}

// servedJob is one job of a round: what is POSTed to /api/v1/jobs.
type servedJob struct {
	Kind  string
	Trace string // replay, analyze, segment-replay: the stored trace
	App   string // record: the corpus program recorded under a fresh name
}

func (c corpusTrace) name() string {
	if c.CheckpointEvery > 0 {
		return c.App + "-ck"
	}
	return c.App
}

// jobOrder derives a round's job list: exact mix proportions, each kind's
// jobs dealt round-robin over the workload's corpus, and the whole list
// shuffled by the seed and the round number. The seed decides only the
// order — every seed and round submits the same jobs, so the work does not
// depend on it — and because which slow jobs happen to overlap moves the
// latency tail, a run pools its percentiles over a different order each
// round. Segment replays go to the checkpointed traces when the corpus has
// any.
func jobOrder(w *workload, seed int64, round int) []servedJob {
	var all, ckpt []string
	for _, c := range w.Corpus {
		all = append(all, c.name())
		if c.CheckpointEvery > 0 {
			ckpt = append(ckpt, c.name())
		}
	}
	if len(ckpt) == 0 {
		ckpt = all
	}
	jobs := make([]servedJob, 0, w.Jobs)
	for _, m := range jobMix {
		for i := 0; i < w.Jobs*m.tenths/10; i++ {
			j := servedJob{Kind: m.kind}
			switch m.kind {
			case "record":
				j.App = w.Corpus[i%len(w.Corpus)].App
			case "segment-replay":
				j.Trace = ckpt[i%len(ckpt)]
			default:
				j.Trace = all[i%len(all)]
			}
			jobs = append(jobs, j)
		}
	}
	rng := rand.New(rand.NewSource(seed + int64(round)*1_000_003))
	rng.Shuffle(len(jobs), func(i, k int) { jobs[i], jobs[k] = jobs[k], jobs[i] })
	return jobs
}

// daemon is a workload's trace service: a store seeded with its corpus and
// a server over it with as many scheduler workers as the round has clients.
type daemon struct {
	w       *workload
	st      *trace.Store
	srv     *server.Server
	ts      *httptest.Server
	seed    int64
	clients int
	round   int
}

func startDaemon(w *workload, seed int64, dir string, workers int) (*daemon, error) {
	st, err := trace.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	for _, c := range w.Corpus {
		if _, err := server.RecordTrace(st, server.RecordRequest{
			App: c.App, Name: c.name(), Scale: corpusScale, Seed: seed,
			EventCap: c.EventCap, CheckpointEvery: c.CheckpointEvery,
		}, nil); err != nil {
			return nil, fmt.Errorf("seeding %s: %w", c.name(), err)
		}
	}
	srv, err := server.New(server.Config{Store: st, Workers: workers})
	if err != nil {
		return nil, err
	}
	return &daemon{w: w, st: st, srv: srv, ts: httptest.NewServer(srv), seed: seed, clients: workers}, nil
}

func (d *daemon) close() {
	d.ts.Close()
	d.srv.Scheduler().Shutdown()
}

// jobOutcome is what one client saw of one job.
type jobOutcome struct {
	latency   time.Duration // submit → terminal state, as the client saw it
	submit    time.Duration // the POST round trip
	queueMS   float64       // scheduler queue wait, from the job snapshot
	resolveMS float64       // trace open + module rebuild, from result.timing
	executeMS float64
	events    int64
}

// round is one closed-loop pass over the job list.
type round struct {
	submitted int
	jobs      []jobOutcome // done jobs only
	rejected  int          // 429s
	wall      time.Duration
}

// jobInfo is the slice of the API's job snapshot the benchmark reads.
type jobInfo struct {
	ID      uint64  `json:"id"`
	State   string  `json:"state"`
	Err     string  `json:"error"`
	QueueMS float64 `json:"queue_ms"`
	Result  struct {
		Events int64 `json:"events"`
		Timing struct {
			ResolveMS float64 `json:"resolve_ms"`
			ExecuteMS float64 `json:"execute_ms"`
		} `json:"timing"`
	} `json:"result"`
}

// runRound drives the job list once: clients pull the next job index until
// the list is exhausted. Every job is one gated operation; only jobs that
// end "done" contribute latency and events. Recordings the round created
// are removed afterwards so every round sees the same store.
func (d *daemon) runRound(sp *obs.Span, g *gate) round {
	d.round++
	jobs := jobOrder(d.w, d.seed, d.round)
	var (
		r    = round{submitted: len(jobs)}
		mu   sync.Mutex
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	for c := 0; c < d.clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				t0 := time.Now()
				out, rejected, err := d.runJob(jobs[i], i)
				g.op("served "+jobs[i].Kind, err)
				mu.Lock()
				if rejected {
					r.rejected++
				}
				if err == nil {
					r.jobs = append(r.jobs, out)
					sp.Record("job "+jobs[i].Kind, t0, t0.Add(out.latency),
						obs.Attr{Key: "client", Value: fmt.Sprint(c)})
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	r.wall = time.Since(start)
	sp.Record("served round", start, start.Add(r.wall))
	for i, j := range jobs {
		if j.Kind == "record" {
			_ = d.st.Remove(d.recordName(i)) // absent when the job failed; already counted
		}
	}
	return r
}

func (d *daemon) recordName(i int) string { return fmt.Sprintf("rec-%d-%d", d.round, i) }

func (d *daemon) runJob(j servedJob, i int) (out jobOutcome, rejected bool, err error) {
	req := server.JobRequest{Kind: j.Kind, Trace: j.Trace, Workers: d.clients}
	if j.Kind == "record" {
		req.Record = server.RecordRequest{App: j.App, Name: d.recordName(i), Scale: corpusScale, Seed: d.seed}
	}
	body, err := json.Marshal(req)
	if err != nil {
		return out, false, err
	}
	start := time.Now()
	resp, err := d.ts.Client().Post(d.ts.URL+"/api/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return out, false, err
	}
	var info jobInfo
	derr := json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	out.submit = time.Since(start)
	if resp.StatusCode != http.StatusAccepted {
		return out, resp.StatusCode == http.StatusTooManyRequests,
			fmt.Errorf("submit %s: status %d", j.Kind, resp.StatusCode)
	}
	if derr != nil {
		return out, false, derr
	}
	stream, err := d.ts.Client().Get(fmt.Sprintf("%s/api/v1/jobs/%d/stream", d.ts.URL, info.ID))
	if err != nil {
		return out, false, err
	}
	defer stream.Body.Close()
	dec := json.NewDecoder(stream.Body)
	for {
		var cur jobInfo
		if err := dec.Decode(&cur); err != nil {
			if err != io.EOF {
				return out, false, err
			}
			break
		}
		info = cur
	}
	out.latency = time.Since(start)
	if info.State != "done" {
		return out, false, fmt.Errorf("job %d (%s %s) ended %q: %s", info.ID, j.Kind, j.Trace, info.State, info.Err)
	}
	out.queueMS = info.QueueMS
	out.resolveMS = info.Result.Timing.ResolveMS
	out.executeMS = info.Result.Timing.ExecuteMS
	out.events = info.Result.Events
	return out, false, nil
}

// cacheHitRate reads the store cache's hit rate from the daemon's /metrics
// exposition, the number an operator sees.
func (d *daemon) cacheHitRate() (float64, error) {
	resp, err := d.ts.Client().Get(d.ts.URL + "/metrics")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, obs.MServedCacheHitRate+" "); ok {
			var v float64
			_, err := fmt.Sscan(rest, &v)
			return v, err
		}
	}
	return 0, fmt.Errorf("%s not in /metrics", obs.MServedCacheHitRate)
}
