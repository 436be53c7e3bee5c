package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Attr is one span attribute. Values are kept as strings: spans are for
// timelines and debugging, not aggregation.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// SpanRecord is one completed span as stored in a Recorder ring.
type SpanRecord struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"` // 0 = root
	TID    int    `json:"tid"`              // logical track (e.g. segment index)
	Name   string `json:"name"`
	Start  time.Time
	End    time.Time
	Attrs  []Attr `json:"attrs,omitempty"`
}

// Dur returns the span's wall duration.
func (r SpanRecord) Dur() time.Duration { return r.End.Sub(r.Start) }

// Recorder collects completed spans into a bounded ring; when full, the
// oldest records are dropped. A nil *Recorder is valid and records nothing,
// so instrumented code paths never need to branch on "is tracing on".
//
// The ring grows by append up to its limit, so a recorder that sees a few
// spans — most daemon jobs — holds a few records, not the limit's worth.
type Recorder struct {
	mu      sync.Mutex
	ring    []SpanRecord
	limit   int
	next    int  // ring write cursor once len(ring) == limit
	wrapped bool // ring has overwritten at least one record
	dropped uint64
	lastID  atomic.Uint64
}

// NewRecorder returns a recorder retaining up to cap completed spans
// (drop-oldest). Non-positive cap defaults to 4096.
func NewRecorder(cap int) *Recorder {
	if cap <= 0 {
		cap = 4096
	}
	return &Recorder{limit: cap}
}

// Start opens a root span. The returned *Span is nil-safe: if r is nil or
// telemetry is disabled, Start returns nil and every Span method no-ops.
func (r *Recorder) Start(name string) *Span {
	return r.StartAt(name, time.Now())
}

// StartAt opens a root span with an explicit start time, for callers that
// time a phase themselves and attach the span after the fact.
func (r *Recorder) StartAt(name string, start time.Time) *Span {
	if r == nil || !enabled.Load() {
		return nil
	}
	return &Span{rec: r, id: r.lastID.Add(1), name: name, start: start}
}

// add stores one completed record, dropping the oldest when full.
func (r *Recorder) add(rec SpanRecord) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.ring) < r.limit {
		r.ring = append(r.ring, rec)
		return
	}
	r.ring[r.next] = rec
	r.next = (r.next + 1) % r.limit
	r.wrapped = true
	r.dropped++
}

// Snapshot returns the retained spans oldest-first, plus how many were
// dropped by ring overflow.
func (r *Recorder) Snapshot() (spans []SpanRecord, dropped uint64) {
	if r == nil {
		return nil, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanRecord, 0, len(r.ring))
	if r.wrapped {
		out = append(out, r.ring[r.next:]...)
		out = append(out, r.ring[:r.next]...)
	} else {
		out = append(out, r.ring...)
	}
	return out, r.dropped
}

// Len returns the number of retained spans.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ring)
}

// Span is an in-flight span. All methods are safe on a nil receiver, so
// callers can thread a possibly-nil span through deep call stacks without
// guards.
type Span struct {
	rec    *Recorder
	id     uint64
	parent uint64
	tid    int
	name   string
	start  time.Time
	mu     sync.Mutex
	attrs  []Attr
	done   bool
}

// Child opens a sub-span under s on the same track.
func (s *Span) Child(name string) *Span {
	return s.ChildAt(name, time.Now())
}

// ChildAt opens a sub-span with an explicit start time.
func (s *Span) ChildAt(name string, start time.Time) *Span {
	if s == nil {
		return nil
	}
	return &Span{
		rec: s.rec, id: s.rec.lastID.Add(1), parent: s.id,
		tid: s.tid, name: name, start: start,
	}
}

// SetTID assigns the span (and its future children) to a logical track;
// the Chrome exporter maps tracks to tid rows.
func (s *Span) SetTID(tid int) {
	if s != nil {
		s.tid = tid
	}
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// End closes the span and commits it to the recorder ring. End is
// idempotent; only the first call records.
func (s *Span) End() {
	s.EndAt(time.Now())
}

// EndAt closes the span with an explicit end time.
func (s *Span) EndAt(end time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	attrs := s.attrs
	s.mu.Unlock()
	s.rec.add(SpanRecord{
		ID: s.id, Parent: s.parent, TID: s.tid,
		Name: s.name, Start: s.start, End: end, Attrs: attrs,
	})
}

// Record stores a pre-timed span (start..end) as a child of s without the
// open/close dance — used when the measured interval is already over by the
// time the caller can reach the recorder.
func (s *Span) Record(name string, start, end time.Time, attrs ...Attr) {
	if s == nil {
		return
	}
	s.rec.add(SpanRecord{
		ID: s.rec.lastID.Add(1), Parent: s.id, TID: s.tid,
		Name: name, Start: start, End: end, Attrs: attrs,
	})
}
