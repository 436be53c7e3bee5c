// Package trace persists iReplayer recordings: the per-thread and
// per-variable event lists of §3.2, which in the paper live only in the
// recording process, serialized to a compact versioned binary format so an
// execution can be recorded once and replayed identically many times,
// offline and in parallel.
//
// The on-disk layout is a magic string followed by self-delimiting,
// CRC-checked frames:
//
//	file    := magic frame* [index-frame trailer]
//	magic   := "IRTRACE1" (8 bytes)
//	frame   := kind:1 len:uvarint payload:len crc32(payload):4 (LE, IEEE)
//	kinds   := 1 header | 2 epoch | 3 summary (end marker) | 4 checkpoint
//	           | 5 index (footer, format v3)
//	trailer := indexOff:8 (LE) "IRX3"
//
// The header frame carries the format version, an application label, the
// recorded module's fingerprint (tir.Fingerprint), and the recording
// options that must match at replay time. Each epoch frame is one
// record.EpochLog: per-thread event lists varint-encoded with per-field
// delta compression (variable addresses, positions, and auxiliary values
// change slowly within a thread's list), then per-variable order lists as
// thread-ID deltas. The summary frame stores the recorded exit value and
// program output, giving offline verification something to compare against;
// a trace without one (recorder killed mid-run) still loads, up to its last
// intact frame. Frames after the summary are a corruption error.
//
// Format v2 adds the optional checkpoint frame (core.Checkpoint serialized):
// the epoch-boundary state the runtime already captures — memory snapshot,
// allocator metadata, vCPU contexts, shadow synchronization state, VFS
// state — persisted at a configurable epoch interval. A checkpoint frame
// precedes the epoch it begins, and its memory image is delta/zero-run
// encoded against the previous checkpoint's (Trace.CheckpointStates folds
// the chain back). Checkpoints split a long trace into independently
// replayable segments (exec.go); v1 traces, which have none, still load.
//
// Format v3 adds random access: the writer closes the file with an index
// footer frame (byte offsets, payload lengths, and CRCs of every epoch and
// checkpoint frame, plus per-frame statistics) located by a fixed trailer,
// so inventory scans and single-trace inspection cost one footer read, and
// a Handle can decode exactly the epoch range or checkpoint a consumer
// asks for (handle.go). Checkpoint frames gain a flags field whose
// keyframe bit marks full-image frames (written every K checkpoints,
// Writer.SetKeyframeEvery), bounding the fold to reach checkpoint k at K
// deltas. A damaged index region degrades the file to the v2 scan path; an
// index that parses but lies about the file is hard corruption.
//
// Format v4 adds seekable per-frame compression and suffix recordings.
// A compressed epoch or checkpoint frame carries the frameCompressed bit
// in its kind byte and stores a raw-length varint plus a deflate stream;
// CRCs and index entries cover the stored bytes, so random access through
// the footer is unchanged and decompression runs only after the checksum
// passes (compress.go). The header gains a flags field whose compressed
// bit declares a trace written with compression (Header.Compressed — the
// store's hot/cold signal), and the summary gains a flags field whose
// partial bit (Summary.Partial) marks a recording that stopped before
// program end — a flight-recorder spill — whose exit and output are not
// replay oracles. A trace may begin with a keyframe checkpoint at its
// first epoch frame: such a suffix trace replays from the checkpoint
// instead of program start, on every replay and analysis path (exec.go).
//
// Writer streams epochs as the runtime flushes them (Writer.Sink plugs
// directly into core.Options.TraceSink, Writer.CheckpointSink into
// core.Options.CheckpointSink); Reader validates and decodes. Store manages
// a directory of traces indexed by module fingerprint with a byte-bounded
// frame-granular decode cache, and exec.go is the one replay executor every
// offline replay and analysis of a stored trace — whole or segmented, one
// job or a fan-out across the worker pool — is a projection of.
package trace

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/record"
)

// Magic identifies a trace file; the trailing digit is the format
// generation and changes only on incompatible layout changes (the header
// version covers compatible revisions).
const Magic = "IRTRACE1"

// Version is the current header version. Version 2 added checkpoint
// frames; version 3 added the index footer frame, the checkpoint flags
// field (keyframe bit), and the keyframe interval; version 4 added
// per-frame compression, header flags, and summary flags. v1–v3 traces
// load unchanged through their original paths.
const Version = 4

// MinVersion is the oldest header version the reader accepts.
const MinVersion = 1

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
	// Compressed declares a trace written with per-frame compression
	// (format v4): epoch and checkpoint bodies that shrink are stored
	// deflated. Set it before NewWriter to enable compression; on decode
	// it is the store's cheap hot/cold classification — no frame needs to
	// be touched to know a trace has been compacted.
	Compressed bool
}

// Summary is the recorded run's observable outcome, stored in the end
// frame for offline verification.
type Summary struct {
	Exit   uint64
	Output string
	// Partial (format v4) marks a recording that ended before the program
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
	// The writer emits one every K checkpoints (Writer.SetKeyframeEvery);
	// in v2 traces only the chain's first checkpoint is one.
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
	// v1 traces or recordings without checkpointing).
	Checkpoints []*Checkpoint
}

// CheckpointStates folds the delta chain and returns every checkpoint with
// its full memory image materialized. Keyframes restart the fold from the
// empty image. The returned checkpoints (and their snapshots) are fresh
// per call except for the shared immutable State fields; callers must not
// mutate them.
func (t *Trace) CheckpointStates() ([]*core.Checkpoint, error) {
	var prev *mem.Snapshot
	out := make([]*core.Checkpoint, len(t.Checkpoints))
	for i, ck := range t.Checkpoints {
		base := prev
		if ck.Keyframe {
			base = nil
		}
		snap, err := mem.ApplySnapshotDelta(base, ck.memDelta)
		if err != nil {
			return nil, fmt.Errorf("trace: checkpoint %d (epoch %d): %w", i, ck.Epoch(), err)
		}
		st := *ck.State
		st.Snap = snap
		out[i] = &st
		prev = snap
	}
	return out, nil
}

// foldCheckpoints folds the delta chain from the nearest keyframe at or
// before k and returns checkpoint k with its memory image materialized —
// the bounded-work path behind Handle.CheckpointAt: at most the keyframe
// interval's worth of deltas are applied.
func foldCheckpoints(cks []*Checkpoint, k int) (*core.Checkpoint, error) {
	if k < 0 || k >= len(cks) {
		return nil, fmt.Errorf("trace: checkpoint %d out of range [0,%d)", k, len(cks))
	}
	j := k
	for j > 0 && !cks[j].Keyframe {
		j--
	}
	var prev *mem.Snapshot
	for i := j; i <= k; i++ {
		base := prev
		if cks[i].Keyframe {
			base = nil
		}
		snap, err := mem.ApplySnapshotDelta(base, cks[i].memDelta)
		if err != nil {
			return nil, fmt.Errorf("trace: checkpoint %d (epoch %d): %w", i, cks[i].Epoch(), err)
		}
		prev = snap
	}
	st := *cks[k].State
	st.Snap = prev
	return &st, nil
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
	return ReadTrace(bytes.NewReader(b))
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
