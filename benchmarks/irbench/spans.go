package main

import (
	"os"
	"sort"
	"time"

	"repro/internal/obs"
)

// spanCap bounds the traced run's in-memory span recorder. One traced
// repetition records a few hundred spans (one per sink call, rollback,
// segment stage and served job), so this holds a whole run without the
// ring dropping any.
const spanCap = 1 << 17

// selfTime is a span's duration minus the part of that interval its child
// spans cover. Children may overlap each other (parallel segments) and
// stick out of the parent (clock reads a hair apart); the covered part is
// the union of their intervals clipped to the parent's.
func selfTime(spans []obs.SpanRecord, id uint64) time.Duration {
	var parent *obs.SpanRecord
	type iv struct{ lo, hi time.Time }
	var kids []iv
	for i := range spans {
		s := &spans[i]
		if s.ID == id {
			parent = s
		}
		if s.Parent == id {
			kids = append(kids, iv{s.Start, s.End})
		}
	}
	if parent == nil {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].lo.Before(kids[j].lo) })
	var covered time.Duration
	cursor := parent.Start
	for _, k := range kids {
		lo, hi := k.lo, k.hi
		if lo.Before(cursor) {
			lo = cursor
		}
		if hi.After(parent.End) {
			hi = parent.End
		}
		if hi.After(lo) {
			covered += hi.Sub(lo)
			cursor = hi
		}
	}
	return parent.Dur() - covered
}

// lastSpan returns the most recently started span with the given name.
func lastSpan(spans []obs.SpanRecord, name string) (obs.SpanRecord, bool) {
	var best obs.SpanRecord
	found := false
	for _, s := range spans {
		if s.Name == name && (!found || s.Start.After(best.Start)) {
			best, found = s, true
		}
	}
	return best, found
}

// childOf returns the named child of the span with the given ID.
func childOf(spans []obs.SpanRecord, parent uint64, name string) (obs.SpanRecord, bool) {
	for _, s := range spans {
		if s.Parent == parent && s.Name == name {
			return s, true
		}
	}
	return obs.SpanRecord{}, false
}

// writeChromeTrace writes the recorder's spans as Chrome trace-event JSON.
func writeChromeTrace(path string, rec *obs.Recorder) error {
	spans, _ := rec.Snapshot()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.ChromeTrace(f, spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
