// Package flight implements the always-on flight recorder: a bounded
// on-disk ring that shadows a recording run and can spill its recent past
// into the trace store as a valid, independently replayable trace.
//
// The ring is an ordinary trace file that never gets its summary or index
// frames: magic, header, then epoch and checkpoint frames in sink order.
// Because every frame is appended through trace.Writer, any prefix of the
// file is decodable — trace.OpenPrefix salvages a ring torn by SIGKILL.
// The ring is bounded by rotation, not by rewriting frames: once it holds
// twice the retention target of epochs, the newest keyframe checkpoint
// that still leaves the target behind it becomes the new origin, and the
// file is rewritten as header + raw bytes from that keyframe (temp file,
// then rename — a crash mid-rotation leaves either the old or the new
// ring, both valid). No frame is re-encoded: a keyframe checkpoint is
// self-contained and everything after it deltas only against retained
// frames, so the byte copy preserves decodability.
//
// A spill re-encodes: the ring is opened as a prefix handle, trimmed to
// the newest checkpoint that retains at least the target number of epochs,
// and streamed into the store (trace.Rewrite) — leading keyframe first,
// then the retained interleaving of checkpoints and epochs. The result is a suffix trace (Handle.LeadingCheckpoint) that
// replays from its first checkpoint instead of program start.
package flight

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/record"
	"repro/internal/trace"
)

// DefaultRetain is the epoch retention target when the caller passes
// retain <= 0.
const DefaultRetain = 8

// RingExt is the ring file suffix. Rings live beside stored traces (the
// store directory), but the extension keeps them invisible to Store.List
// and GC — a ring is not a trace until it spills.
const RingExt = ".ring"

// RingPath places the ring for a named recording inside a store's
// directory.
func RingPath(st *trace.Store, name string) string {
	return filepath.Join(st.Dir(), name+RingExt)
}

// mark remembers a keyframe checkpoint in the current ring file: where its
// frame starts, which epoch it begins, and how many epoch frames precede
// it (the frames a rotation cutting here would drop).
type mark struct {
	off          int64
	epoch        int64
	epochsBefore int
}

// ringFile is the counting io.Writer under the trace.Writer. The writer
// emits each frame as one Write with no buffering, so n is always the
// exact size of the current ring inode — rotation swaps f and rebases n
// without the trace.Writer noticing.
type ringFile struct {
	f *os.File
	n int64
}

func (rf *ringFile) Write(p []byte) (int, error) {
	n, err := rf.f.Write(p)
	rf.n += int64(n)
	return n, err
}

// Recorder is the core.FlightSink implementation. Attach it via
// core.Options.FlightRecorder; it is safe for the single-threaded sink
// call pattern core guarantees (sinks run while the world is quiescent)
// and additionally locks so Spill may be called from a signal handler
// goroutine while the run is mid-epoch.
type Recorder struct {
	mu sync.Mutex

	path   string
	retain int
	// keyEvery mirrors the writer's keyframe interval; Recorder replicates
	// the writer's "every keyEvery-th checkpoint" rule to know which frames
	// are rotation cut points.
	keyEvery int

	rf     ringFile      // guarded by mu
	w      *trace.Writer // guarded by mu
	closed bool          // guarded by mu

	headerEnd int64 // offset of the first frame after magic+header
	epochs    int   // epoch frames currently in the ring
	ckpts     int   // checkpoint frames ever written (keyframe ordinal)
	marks     []mark
}

// New creates (truncating) the ring at path and returns a recorder that
// retains roughly retain epochs (<= 0 selects DefaultRetain; the ring file
// holds between retain and 2x retain epochs between rotations). The header
// is written immediately; compression stays off in the ring — the hot
// write path pays an encode per epoch and nothing more — and a spill or a
// later `ir-trace compact` compresses the stored result instead.
func New(path string, hdr trace.Header, retain int) (*Recorder, error) {
	if retain <= 0 {
		retain = DefaultRetain
	}
	hdr.Compressed = false
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("flight: creating ring: %w", err)
	}
	r := &Recorder{path: path, retain: retain, keyEvery: (retain + 1) / 2}
	if r.keyEvery < 1 {
		r.keyEvery = 1
	}
	r.rf.f = f
	w, err := trace.NewWriter(&r.rf, hdr)
	if err != nil {
		f.Close()
		os.Remove(path)
		return nil, err
	}
	w.SetKeyframeEvery(r.keyEvery)
	r.w = w
	r.headerEnd = r.rf.n
	return r, nil
}

// Path returns the ring file's path.
func (r *Recorder) Path() string { return r.path }

// Epochs returns how many epoch frames the ring currently holds.
func (r *Recorder) Epochs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epochs
}

// RecordEpoch appends one epoch frame and rotates the ring if it grew past
// twice the retention target (core.FlightSink).
func (r *Recorder) RecordEpoch(ep *record.EpochLog) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("flight: recorder closed")
	}
	if err := r.w.WriteEpoch(ep); err != nil {
		return err
	}
	r.epochs++
	return r.maybeRotateLocked()
}

// RecordCheckpoint appends one checkpoint frame (core.FlightSink),
// remembering keyframes as rotation cut points.
func (r *Recorder) RecordCheckpoint(ck *core.Checkpoint) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return fmt.Errorf("flight: recorder closed")
	}
	off := r.rf.n
	keyframe := r.ckpts%r.keyEvery == 0
	if err := r.w.WriteCheckpoint(ck); err != nil {
		return err
	}
	r.ckpts++
	if keyframe {
		r.marks = append(r.marks, mark{off: off, epoch: ck.Epoch, epochsBefore: r.epochs})
	}
	return nil
}

// maybeRotateLocked trims the ring once it holds 2x the retention target: the
// newest keyframe that still leaves >= retain epochs behind it becomes the
// file's first frame. Called with r.mu held.
func (r *Recorder) maybeRotateLocked() error {
	if r.epochs < 2*r.retain {
		return nil
	}
	best := -1
	for i := len(r.marks) - 1; i >= 0; i-- {
		if r.epochs-r.marks[i].epochsBefore >= r.retain {
			best = i
			break
		}
	}
	if best < 0 || r.marks[best].epochsBefore == 0 {
		return nil // no cut point that drops anything yet
	}
	defer obs.FlightRotate.ObserveSince(time.Now())
	m := r.marks[best]

	tmp, err := os.CreateTemp(filepath.Dir(r.path), filepath.Base(r.path)+".*.tmp")
	if err != nil {
		return fmt.Errorf("flight: rotating ring: %w", err)
	}
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("flight: rotating ring: %w", err)
	}
	if _, err := io.Copy(tmp, io.NewSectionReader(r.rf.f, 0, r.headerEnd)); err != nil {
		return fail(err)
	}
	if _, err := io.Copy(tmp, io.NewSectionReader(r.rf.f, m.off, r.rf.n-m.off)); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("flight: rotating ring: %w", err)
	}
	if err := os.Rename(tmp.Name(), r.path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("flight: rotating ring: %w", err)
	}
	nf, err := os.OpenFile(r.path, os.O_RDWR, 0)
	if err != nil {
		return fmt.Errorf("flight: reopening ring: %w", err)
	}
	if _, err := nf.Seek(0, io.SeekEnd); err != nil {
		nf.Close()
		return fmt.Errorf("flight: reopening ring: %w", err)
	}
	r.rf.f.Close()
	r.rf.f = nf

	// Rebase everything the cut shifted: retained frames moved back by the
	// span of the dropped ones.
	delta := m.off - r.headerEnd
	r.rf.n -= delta
	r.epochs -= m.epochsBefore
	kept := r.marks[best:]
	for i := range kept {
		kept[i].off -= delta
		kept[i].epochsBefore -= m.epochsBefore
	}
	r.marks = append(r.marks[:0], kept...)
	return nil
}

// Close discards the recorder: the ring file is removed — its contents
// were either spilled into the store already or deemed uninteresting. A
// crash that skips Close leaves the ring on disk for Salvage.
func (r *Recorder) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return nil
	}
	r.closed = true
	err := r.rf.f.Close()
	if rerr := os.Remove(r.path); err == nil {
		err = rerr
	}
	return err
}

// SpillStats describes one spill.
type SpillStats struct {
	// Epochs retained; FirstEpoch..LastEpoch their 1-based range.
	Epochs     int   `json:"epochs"`
	FirstEpoch int64 `json:"first_epoch"`
	LastEpoch  int64 `json:"last_epoch"`
	// Suffix reports that the spill resumes from a leading checkpoint
	// rather than program start.
	Suffix bool `json:"suffix"`
	// Bytes is the stored trace's size.
	Bytes int64 `json:"bytes"`
}

// Spill writes the ring's retained suffix into the store under name. sum
// carries the run's outcome when the program actually ended (fault spill:
// recorded exit and *full* program output — Spill trims the output to the
// suffix's share); nil marks the spill partial (on-demand or
// signal-triggered spills of a still-running program carry no replay
// oracle). The recorder stays usable: recording may continue after an
// on-demand spill.
func (r *Recorder) Spill(st *trace.Store, name string, sum *trace.Summary) (SpillStats, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return SpillStats{}, fmt.Errorf("flight: recorder closed")
	}
	defer obs.FlightSpill.ObserveSince(time.Now())
	h, err := trace.OpenPrefix(r.rf.f, r.rf.n)
	if err != nil {
		return SpillStats{}, fmt.Errorf("flight: decoding ring: %w", err)
	}
	return spill(st, name, h, r.retain, sum)
}

// Salvage recovers a ring left behind by a crashed recording (the process
// was killed before Close): the longest clean prefix is decoded and
// spilled into the store under name, untrimmed — whatever survived is
// whatever there is — and always partial, because a killed program's exit
// and output are unknown. The ring file is removed on success.
func Salvage(ringPath string, st *trace.Store, name string) (SpillStats, error) {
	f, err := os.Open(ringPath)
	if err != nil {
		return SpillStats{}, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return SpillStats{}, err
	}
	h, err := trace.OpenPrefix(f, fi.Size())
	if err != nil {
		return SpillStats{}, fmt.Errorf("flight: salvaging ring: %w", err)
	}
	stats, err := spill(st, name, h, 0, nil)
	if err != nil {
		return stats, err
	}
	return stats, os.Remove(ringPath)
}

// spill re-encodes the retained suffix of the ring behind h into the
// store. retain > 0 trims to the newest checkpoint keeping at least that
// many epochs; 0 keeps everything decodable. The suffix starts at a
// checkpoint whenever one coincides with its first epoch — always the case
// for a rotated ring. Epoch sequence numbers are consecutive (the runtime
// numbers them; a rotation drops a prefix), so counts are differences.
func spill(st *trace.Store, name string, h *trace.Handle, retain int, sum *trace.Summary) (SpillStats, error) {
	if h.NumEpochs() == 0 {
		return SpillStats{}, fmt.Errorf("flight: ring holds no complete epoch")
	}
	first, last := h.EpochRange()
	cks := h.CheckpointEpochs()

	cut := -1
	if retain > 0 && h.NumEpochs() > retain {
		for k := len(cks) - 1; k >= 0; k-- {
			if last-cks[k]+1 >= int64(retain) {
				cut = k
				break
			}
		}
	}
	if cut < 0 && len(cks) > 0 && cks[0] == first {
		cut = 0 // rotated ring: the suffix must resume from its leading keyframe
	}
	if cut >= 0 {
		first = cks[cut]
	}

	out := &trace.Summary{Partial: true}
	if sum != nil {
		s := *sum
		if cut >= 0 {
			ck0, err := h.CheckpointAt(cut)
			if err != nil {
				return SpillStats{}, err
			}
			if ck0.OutputLen > len(s.Output) {
				return SpillStats{}, fmt.Errorf("flight: checkpoint attributes %d output bytes, summary holds %d",
					ck0.OutputLen, len(s.Output))
			}
			s.Output = s.Output[ck0.OutputLen:]
		}
		out = &s
	}

	p, err := st.Create(name)
	if err != nil {
		return SpillStats{}, err
	}
	w, err := trace.NewWriter(p, h.Header())
	if err == nil {
		err = trace.Rewrite(w, h, cut)
	}
	if err == nil {
		err = w.Finish(out)
	}
	if err != nil {
		p.Abort()
		return SpillStats{}, err
	}
	stats := SpillStats{
		Epochs:     w.Epochs(),
		FirstEpoch: first,
		LastEpoch:  last,
		Suffix:     cut >= 0,
		Bytes:      p.Bytes(),
	}
	if err := p.Commit(); err != nil {
		return SpillStats{}, err
	}
	return stats, nil
}
