// Package trace persists iReplayer recordings: the per-thread and
// per-variable event lists of §3.2, which in the paper live only in the
// recording process, serialized to a compact binary format so an execution
// can be recorded once and replayed identically many times, offline and in
// parallel.
//
// There is one format (header version 4) and one reader (Handle). The
// on-disk layout is a magic string followed by self-delimiting,
// CRC-checked frames:
//
//	file    := magic header-frame (checkpoint-frame | epoch-frame)*
//	           [summary-frame [index-frame trailer]]
//	magic   := "IRTRACE1" (8 bytes)
//	frame   := kind:1 len:uvarint payload:len crc32(payload):4 (LE, IEEE)
//	kinds   := 1 header | 2 epoch | 3 summary (end marker) | 4 checkpoint
//	           | 5 index (footer); bit 0x80 marks a deflated payload
//	trailer := indexOff:8 (LE) "IRX3"
//
// The header frame carries the format version, an application label, the
// recorded module's fingerprint (tir.Fingerprint), the recording options
// that must match at replay time, and a flags field whose compressed bit
// declares a trace written with compression (Header.Compressed — the
// store's hot/cold signal). A header declaring any other version is
// refused.
//
// Each epoch frame is one record.EpochLog: per-thread event lists
// varint-encoded with per-field delta compression (variable addresses,
// positions, and auxiliary values change slowly within a thread's list),
// then per-variable order lists as thread-ID deltas.
//
// A checkpoint frame is a serialized core.Checkpoint: the epoch-boundary
// state the runtime already captures — memory snapshot, allocator
// metadata, vCPU contexts, shadow synchronization state, VFS state —
// persisted at a configurable epoch interval. It precedes the epoch it
// begins, and its memory image is delta/zero-run encoded against the
// previous checkpoint's, except in keyframes (the flags field's keyframe
// bit, written every K checkpoints, Writer.SetKeyframeEvery), which store
// the full image and bound the fold to reach checkpoint k at K deltas.
// Checkpoints split a long trace into independently replayable segments
// (exec.go). A trace may begin with a keyframe checkpoint at its first
// epoch frame: such a suffix trace replays from the checkpoint instead of
// program start, on every replay and analysis path.
//
// The summary frame stores the recorded exit value and program output,
// giving offline verification something to compare against; its flags
// field's partial bit (Summary.Partial) marks a recording that stopped
// before program end — a flight-recorder spill — whose exit and output are
// not replay oracles. A trace without a summary (recorder killed mid-run)
// still opens, up to its last intact frame. After the summary the writer
// closes the file with the index footer frame (byte offsets, payload
// lengths, and CRCs of every epoch and checkpoint frame, plus per-frame
// statistics) located by a fixed trailer, so inventory scans and
// single-trace inspection cost one footer read, and a Handle can decode
// exactly the epoch range or checkpoint a consumer asks for. A damaged
// index region degrades the file to a sequential scan; an index that
// parses but lies about the file is hard corruption; anything else after
// the summary is a corruption error (index.go).
//
// A compressed epoch or checkpoint frame carries the frameCompressed bit
// in its kind byte and stores a raw-length varint plus a deflate stream;
// CRCs and index entries cover the stored bytes, so random access through
// the footer is unchanged and decompression runs only after the checksum
// passes (compress.go).
//
// Writer streams epochs as the runtime flushes them (Writer.Sink plugs
// directly into core.Options.TraceSink, Writer.CheckpointSink into
// core.Options.CheckpointSink); Handle validates and decodes — every way
// of opening a trace (OpenFile, OpenBytes, OpenPrefix, Store.Open, Decode)
// goes through the same index and the same frame checks. Store manages a
// directory of traces indexed by module fingerprint with a byte-bounded
// frame-granular decode cache, and exec.go is the one replay executor every
// offline replay and analysis of a stored trace — whole or segmented, one
// job or a fan-out across the worker pool — is a projection of.
package trace

import (
	"bytes"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/record"
)

// Magic identifies a trace file; the trailing digit is the format
// generation and changes only on incompatible layout changes (the header
// version covers compatible revisions).
const Magic = "IRTRACE1"

// Version is the one header version this package writes and reads; a
// header declaring any other is refused at open.
const Version = 4

// Frame kinds.
const (
	frameHeader byte = 1
	frameEpoch  byte = 2
	frameSum    byte = 3
	frameCkpt   byte = 4
	frameIndex  byte = 5
)

// Header describes a recording. EventCap, VarCap, and Seed are the
// recording options an offline replay must reuse for addresses and epoch
// structure to reproduce.
type Header struct {
	// Version is the format version the stream declared. It is set on
	// decode and ignored on encode — writers always write the current
	// Version.
	Version int
	// App is a free-form application label (workload name for the bundled
	// apps).
	App string
	// ModuleHash is tir.Fingerprint of the recorded module; zero means
	// unknown (the replayer then skips the identity check).
	ModuleHash uint64
	// EventCap and VarCap are the recording run's preallocated list sizes.
	EventCap int
	VarCap   int
	// Seed is the recording run's external-nondeterminism seed.
	Seed int64
	// AppIters is the per-thread iteration count the workload was built
	// with (0 = unknown): the one module-shaping parameter the bundled
	// recorder exposes, stored so replay can rebuild the exact module
	// instead of searching for a fingerprint match.
	AppIters int
	// Compressed declares a trace written with per-frame compression:
	// epoch and checkpoint bodies that shrink are stored deflated. Set it before NewWriter to enable compression; on decode
	// it is the store's cheap hot/cold classification — no frame needs to
	// be touched to know a trace has been compacted.
	Compressed bool
}

// Summary is the recorded run's observable outcome, stored in the end
// frame for offline verification.
type Summary struct {
	Exit   uint64
	Output string
	// Partial marks a recording that ended before the program
	// did — a flight-recorder spill on demand or signal, or a salvaged
	// crash ring. Exit and Output are then not oracles: replay consumes
	// the recorded events and verifies schedule reproduction, but skips
	// the exit/output comparison (Output may still carry the suffix output
	// when the spiller knew it).
	Partial bool
}

// Checkpoint is one decoded checkpoint frame. State carries everything but
// the memory image, which stays in delta form (memDelta) until
// Trace.CheckpointStates folds the chain — decoding a long trace must not
// materialize one full address-space image per checkpoint.
type Checkpoint struct {
	// State is the checkpoint with State.Snap == nil. Immutable: segment
	// replays running in parallel share it.
	State *core.Checkpoint
	// Keyframe marks a frame whose memory delta was encoded against the
	// empty image (a full snapshot): the fold base readers restart from.
	// The writer emits one every K checkpoints (Writer.SetKeyframeEvery).
	Keyframe bool
	// memDelta is the raw delta/zero-run encoding of the memory image
	// against the previous checkpoint's (the empty image for keyframes).
	memDelta []byte
}

// Epoch returns the 1-based epoch the checkpoint begins.
func (c *Checkpoint) Epoch() int64 { return c.State.Epoch }

// Trace is a fully decoded trace.
type Trace struct {
	Header  Header
	Epochs  []*record.EpochLog
	Summary *Summary
	// Checkpoints are the trace's checkpoint frames in file order (empty for
	// recordings without checkpointing).
	Checkpoints []*Checkpoint
}

// materialize applies c's memory delta to prev — the previous checkpoint's
// image, ignored by keyframes, which restart from the empty one — and
// returns the checkpoint with its image filled in: one step of every fold.
// The result is fresh except for the shared immutable State fields.
func (c *Checkpoint) materialize(prev *mem.Snapshot) (*core.Checkpoint, error) {
	if c.Keyframe {
		prev = nil
	}
	snap, err := mem.ApplySnapshotDelta(prev, c.memDelta)
	if err != nil {
		return nil, fmt.Errorf("trace: checkpoint at epoch %d: %w", c.Epoch(), err)
	}
	st := *c.State
	st.Snap = snap
	return &st, nil
}

// CheckpointStates folds the delta chain and returns every checkpoint with
// its full memory image materialized — all of them alive at once, which is
// what makes it the tests' reference fold and nothing's production path.
// Callers must not mutate the results.
func (t *Trace) CheckpointStates() ([]*core.Checkpoint, error) {
	var prev *mem.Snapshot
	out := make([]*core.Checkpoint, len(t.Checkpoints))
	for i, ck := range t.Checkpoints {
		st, err := ck.materialize(prev)
		if err != nil {
			return nil, err
		}
		out[i], prev = st, st.Snap
	}
	return out, nil
}

// EventCount sums events across all epochs.
func (t *Trace) EventCount() int64 {
	var n int64
	for _, ep := range t.Epochs {
		n += int64(ep.EventCount())
	}
	return n
}

// Encode serializes a whole trace, interleaving each checkpoint frame
// before the epoch it begins. The encoding is canonical: equal traces
// produce identical bytes, and Encode∘Decode∘Encode is the identity on
// bytes (decoded checkpoints re-emit their stored delta verbatim).
func Encode(tr *Trace) ([]byte, error) {
	var buf bytes.Buffer
	w, err := NewWriter(&buf, tr.Header)
	if err != nil {
		return nil, err
	}
	ci := 0
	for _, ep := range tr.Epochs {
		for ci < len(tr.Checkpoints) && tr.Checkpoints[ci].Epoch() == ep.Epoch {
			ck := tr.Checkpoints[ci]
			if ck.memDelta != nil {
				err = w.writeRawCheckpoint(ck)
			} else {
				err = w.WriteCheckpoint(ck.State)
			}
			if err != nil {
				return nil, err
			}
			ci++
		}
		if err := w.WriteEpoch(ep); err != nil {
			return nil, err
		}
	}
	if ci != len(tr.Checkpoints) {
		return nil, fmt.Errorf("trace: checkpoint at epoch %d has no matching epoch frame",
			tr.Checkpoints[ci].Epoch())
	}
	if err := w.Finish(tr.Summary); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Decode deserializes a whole trace produced by Encode or a Writer.
func Decode(b []byte) (*Trace, error) {
	h, err := OpenBytes(b)
	if err != nil {
		return nil, err
	}
	return h.Trace()
}

// Rewrite streams h's frames into w — the re-encode behind Store.Compact
// and the flight recorder's spill, so w's compression and keyframe
// interval apply. fromCk < 0 copies the whole trace; otherwise the copy
// starts at checkpoint fromCk (0-based, file order) and the epoch it
// begins, dropping everything before, which makes the output a suffix
// trace. Memory images come from one running fold: each checkpoint frame
// is decoded once and at most two images are alive, whatever the trace's
// length. (Encode keeps its own loop because its contract is different:
// it re-emits stored deltas verbatim to stay byte-canonical.) The caller
// finishes w.
func Rewrite(w *Writer, h *Handle, fromCk int) error {
	ix := h.idx
	if fromCk >= len(ix.ckpts) {
		return fmt.Errorf("trace: checkpoint %d out of range [0,%d)", fromCk, len(ix.ckpts))
	}
	ei, ci := 0, 0
	if fromCk >= 0 {
		ei = sort.Search(len(ix.epochs), func(i int) bool { return ix.epochs[i].seq >= ix.ckpts[fromCk].epoch })
		ci = ix.foldBase(fromCk)
	}
	var prev *mem.Snapshot
	fold := func(k int) (*core.Checkpoint, error) {
		ck, err := h.ckptAt(k)
		if err != nil {
			return nil, err
		}
		st, err := ck.materialize(prev)
		if err != nil {
			return nil, err
		}
		prev = st.Snap
		return st, nil
	}
	for ; ci < fromCk; ci++ { // the run-up from the fold base: applied, not copied
		if _, err := fold(ci); err != nil {
			return err
		}
	}
	for ; ei < len(ix.epochs); ei++ {
		for ; ci < len(ix.ckpts) && ix.ckpts[ci].epoch == ix.epochs[ei].seq; ci++ {
			st, err := fold(ci)
			if err != nil {
				return err
			}
			if err := w.WriteCheckpoint(st); err != nil {
				return err
			}
		}
		ep, err := h.epochAt(ei)
		if err != nil {
			return err
		}
		if err := w.WriteEpoch(ep); err != nil {
			return err
		}
	}
	if ci != len(ix.ckpts) {
		return fmt.Errorf("trace: checkpoint at epoch %d has no matching epoch frame", ix.ckpts[ci].epoch)
	}
	return nil
}

func validateName(name string) error {
	if name == "" {
		return fmt.Errorf("trace: empty trace name")
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.', r == '#':
		default:
			return fmt.Errorf("trace: invalid character %q in trace name %q", r, name)
		}
	}
	return nil
}
