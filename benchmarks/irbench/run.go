package main

import (
	"math"
	"time"

	"repro/internal/trace"
)

// samples collects, per metric, one value for every operation measured.
type samples map[string][]float64

// add records one sample. A value that is not a finite number (a ratio
// over a zero wall) is not a measurement and is dropped; the metric then
// shows up as missing, which the run reports as a failure.
func (s samples) add(name string, v float64) {
	if !math.IsNaN(v) && !math.IsInf(v, 0) {
		s[name] = append(s[name], v)
	}
}

// servedLatencies pools client-observed job latencies across rounds: the
// served_job_p* metrics are percentiles of this pool, so the tail is read
// from every job of the run, not from one round's handful.
const servedLatencies = "served_job_ms"

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func perSec(events int64, d time.Duration) float64 { return float64(events) / d.Seconds() }

// repWalls are the phase walls the traced run compares against the untraced
// one (bench.trace_overhead).
type repWalls struct {
	record, replay, analyze time.Duration
}

func (w repWalls) total() time.Duration { return w.record + w.replay + w.analyze }

// phaseSlice is how long each phase of a repetition lasts at least: its
// operation repeats, one sample each time, until the slice is used up. A
// 20 ms baseline run and a 400 ms in-situ run so get the same share of the
// run, and the operations whose wall depends most on scheduling luck — the
// short ones — are sampled most often.
const phaseSlice = 200 * time.Millisecond

// sliced repeats op for one phase slice. op reports whether it succeeded; a
// failing operation is not repeated.
func (e *env) sliced(op func() bool) {
	start := time.Now()
	for op() && time.Since(start) < e.slice {
	}
}

// repetition runs every phase, untraced, in a fixed order. The phase loop
// sits inside the repetition loop, so slow drift of the host hits every
// phase of a repetition equally. An operation that fails its check is
// counted by the gate and adds no sample.
func (e *env) repetition(s samples) (walls repWalls) {
	rec := e.recordPhases(s)
	if rec == nil {
		return walls // nothing to replay
	}
	walls = e.offlinePhases(s, rec)
	walls.record = rec.wall
	e.served(s, e.daemon.runRound(nil, e.g))
	return walls
}

// recordPhases runs the program three ways: unrecorded, recorded into the
// library store, and recorded with every epoch re-executed in situ. It
// returns the last recording, which the offline phases replay.
func (e *env) recordPhases(s samples) (rec *recording) {
	g := e.g
	var bases []float64
	e.sliced(func() bool {
		d, err := e.baseline(nil)
		if g.op("baseline", err) {
			bases = append(bases, float64(d))
		}
		return err == nil
	})
	st, err := trace.OpenStore(e.libDir)
	if !g.op("open store", err) {
		return nil
	}
	e.sliced(func() bool {
		r, err := e.record(nil, st, e.w.Name, e.w.CheckpointEvery, 0)
		if !g.op("record", err) {
			rec = nil // a failed rewrite leaves nothing trustworthy to replay
			return false
		}
		rec = r
		if len(bases) > 0 {
			// Paired within the repetition: this recording against the
			// baseline runs that immediately preceded it.
			s.add("record_overhead", float64(r.wall)/median(bases))
		}
		s.add("record_events_per_s", perSec(r.events, r.wall))
		s.add("trace_bytes_per_event", float64(r.bytes)/float64(r.events))
		return true
	})
	e.sliced(func() bool {
		ins, err := e.insitu(nil)
		if g.op("in-situ replay", err) {
			s.add("insitu_replay_events_per_s", perSec(ins.events, ins.replayTime))
		}
		return err == nil
	})
	return rec
}

// offlinePhases replays and analyzes the stored recording, whole and
// segmented, every operation through a freshly opened store. The walls
// returned are the last operation's.
func (e *env) offlinePhases(s samples, rec *recording) (walls repWalls) {
	g := e.g
	name := e.w.Name
	e.sliced(func() bool {
		stats, err := e.replay(nil, name, rec.rep)
		if g.op("replay", err) {
			walls.replay = stats.Elapsed
			s.add("replay_events_per_s", perSec(stats.Events, stats.Elapsed))
		}
		return err == nil
	})
	var whole []byte
	e.sliced(func() bool {
		stats, js, err := e.analyze(nil, name, rec.rep)
		if g.op("analyze", err) {
			whole = js
			walls.analyze = stats.Elapsed
			s.add("analyze_events_per_s", perSec(stats.Events, stats.Elapsed))
		}
		return err == nil
	})
	e.sliced(func() bool {
		_, stats, err := e.segmentReplay(nil, name)
		if g.op("segment replay", err) {
			s.add("segment_replay_events_per_s", perSec(stats.Events, stats.Elapsed))
		}
		return err == nil
	})
	if whole != nil {
		e.sliced(func() bool {
			_, stats, err := e.segmentAnalyze(nil, name, rec.rep, whole)
			if g.op("segment analyze", err) {
				s.add("segment_analyze_events_per_s", perSec(stats.Events, stats.Elapsed))
			}
			return err == nil
		})
	}
	e.sliced(func() bool {
		d, err := e.coldstart(nil, name)
		if g.op("cold-start segment", err) {
			s.add("coldstart_segment_ms", ms(d))
		}
		return err == nil
	})
	return walls
}

// served folds one daemon round into the samples. A round in which any job
// failed contributes no throughput: its wall covers work that produced no
// answer.
func (e *env) served(s samples, r round) {
	if len(r.jobs) != r.submitted {
		return
	}
	var events int64
	for _, j := range r.jobs {
		events += j.events
		s.add(servedLatencies, ms(j.latency))
	}
	s.add("served_events_per_s", perSec(events, r.wall))
}

// minReps is the fewest timed repetitions a run reports from, however slow
// the host; the time budget normally allows seven or more.
const minReps = 3

// measure repeats rep until the time budget is spent — it stops when another
// repetition as long as the longest so far would overrun it — but at least
// atLeast times.
func measure(budget time.Duration, atLeast int, rep func()) int {
	start := time.Now()
	var longest time.Duration
	n := 0
	for n < atLeast || time.Since(start)+longest <= budget {
		t0 := time.Now()
		rep()
		if d := time.Since(t0); d > longest {
			longest = d
		}
		n++
	}
	return n
}
