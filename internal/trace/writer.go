package trace

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/record"
)

// DefaultKeyframeEvery is the keyframe interval a Writer uses unless
// SetKeyframeEvery changes it: every K-th checkpoint frame stores its full
// memory image (a delta against the empty image) instead of a delta
// against the previous checkpoint, so folding to checkpoint k decodes at
// most K frames instead of the whole chain.
const DefaultKeyframeEvery = 8

// Writer streams a trace: header first, then one frame per epoch as the
// runtime flushes them — interleaved with checkpoint frames when the
// recording checkpoints — then the summary end marker, the index footer
// frame, and its trailer. It buffers only one frame at a time, so recording
// overhead stays proportional to epoch size, not trace size.
type Writer struct {
	w        io.Writer
	err      error
	finished bool
	scratch  []byte

	// off is the byte offset the next frame lands at; lastCRC and lastPlen
	// describe the last frame written (its stored payload, compressed or
	// not). Together they feed the index.
	off      int64
	lastCRC  uint32
	lastPlen int
	index    fileIndex

	// compress enables per-frame deflate of epoch and checkpoint bodies
	// (Header.Compressed); z is the reused compressor.
	compress bool
	z        deflater

	// keyEvery is the keyframe interval (SetKeyframeEvery).
	keyEvery int

	// prevSnap is the previous checkpoint's memory image, the delta base for
	// the next one. prevRaw marks that a pre-encoded delta was re-emitted
	// (Encode of a decoded trace), after which fresh snapshots cannot be
	// chained.
	prevSnap *mem.Snapshot
	prevRaw  bool
}

// NewWriter writes the magic and header frame and returns a streaming
// writer.
func NewWriter(w io.Writer, hdr Header) (*Writer, error) {
	tw := &Writer{w: w, keyEvery: DefaultKeyframeEvery, compress: hdr.Compressed}
	if _, err := io.WriteString(w, Magic); err != nil {
		return nil, fmt.Errorf("trace: writing magic: %w", err)
	}
	tw.off = int64(len(Magic))
	if err := tw.frame(frameHeader, appendHeader(nil, hdr)); err != nil {
		return nil, err
	}
	return tw, nil
}

// SetKeyframeEvery sets the checkpoint keyframe interval: every k-th
// checkpoint frame (starting with the first) stores a full memory image.
// k <= 0 restores the default; k == 1 makes every checkpoint a keyframe.
// Recordings and compactions use the default; the flight ring, which
// derives its interval from how many epochs it retains, is the one caller.
func (tw *Writer) SetKeyframeEvery(k int) {
	if k <= 0 {
		k = DefaultKeyframeEvery
	}
	tw.keyEvery = k
}

// frame emits one kind/len/payload/crc frame.
func (tw *Writer) frame(kind byte, payload []byte) error {
	if tw.err != nil {
		return tw.err
	}
	buf := tw.scratch[:0]
	buf = append(buf, kind)
	buf = binary.AppendUvarint(buf, uint64(len(payload)))
	buf = append(buf, payload...)
	tw.lastCRC = crc32.ChecksumIEEE(payload)
	tw.lastPlen = len(payload)
	buf = binary.LittleEndian.AppendUint32(buf, tw.lastCRC)
	tw.scratch = buf[:0]
	if _, err := tw.w.Write(buf); err != nil {
		tw.err = fmt.Errorf("trace: writing frame: %w", err)
		return tw.err
	}
	tw.off += int64(len(buf))
	return nil
}

// dataFrame emits one epoch or checkpoint frame, deflating the payload
// when compression is on and pays (the stored form would be smaller). The
// index entry the caller appends must use lastPlen/lastCRC — they describe
// the stored bytes, which is what readFrameAt fetches and checksums.
func (tw *Writer) dataFrame(kind byte, payload []byte) error {
	if tw.compress {
		if stored, ok := tw.z.deflate(payload); ok {
			return tw.frame(kind|frameCompressed, stored)
		}
	}
	return tw.frame(kind, payload)
}

// WriteEpoch appends one epoch frame.
func (tw *Writer) WriteEpoch(ep *record.EpochLog) error {
	if tw.finished {
		return fmt.Errorf("trace: WriteEpoch after Finish")
	}
	payload := appendEpoch(nil, ep)
	off := tw.off
	if err := tw.dataFrame(frameEpoch, payload); err != nil {
		return err
	}
	tw.index.epochs = append(tw.index.epochs, epochRef{
		frameRef: frameRef{off: off, plen: tw.lastPlen, crc: tw.lastCRC},
		seq:      ep.Epoch,
		events:   int64(ep.EventCount()),
	})
	return nil
}

// Sink adapts the writer to core.Options.TraceSink.
func (tw *Writer) Sink() func(*record.EpochLog) error {
	return tw.WriteEpoch
}

// WriteCheckpoint appends one checkpoint frame, delta-encoding its memory
// image against the previously written checkpoint's — except at keyframe
// positions (every keyEvery-th checkpoint, the first included), which
// encode against the empty image so readers can fold from the nearest
// keyframe instead of the chain's start. Call it before the epoch frame of
// ck.Epoch — which is the order core's sinks produce.
func (tw *Writer) WriteCheckpoint(ck *core.Checkpoint) error {
	if tw.finished {
		return fmt.Errorf("trace: WriteCheckpoint after Finish")
	}
	if ck.Snap == nil {
		return fmt.Errorf("trace: checkpoint at epoch %d has no memory snapshot", ck.Epoch)
	}
	if tw.prevRaw {
		return fmt.Errorf("trace: cannot chain a fresh checkpoint after a re-emitted delta")
	}
	keyframe := len(tw.index.ckpts)%tw.keyEvery == 0
	base := tw.prevSnap
	if keyframe {
		base = nil
	}
	delta, err := mem.AppendSnapshotDelta(nil, base, ck.Snap)
	if err != nil {
		return err
	}
	payload, err := appendCheckpoint(nil, ck, delta, keyframe)
	if err != nil {
		return err
	}
	return tw.emitCheckpoint(payload, ck.Epoch, keyframe, ck.Snap)
}

// writeRawCheckpoint re-emits a decoded checkpoint frame verbatim (its
// stored delta already chains against the previously emitted one, or is a
// keyframe).
func (tw *Writer) writeRawCheckpoint(ck *Checkpoint) error {
	if tw.finished {
		return fmt.Errorf("trace: WriteCheckpoint after Finish")
	}
	payload, err := appendCheckpoint(nil, ck.State, ck.memDelta, ck.Keyframe)
	if err != nil {
		return err
	}
	tw.prevRaw = true
	return tw.emitCheckpoint(payload, ck.Epoch(), ck.Keyframe, nil)
}

// emitCheckpoint writes a prepared checkpoint payload and indexes it.
func (tw *Writer) emitCheckpoint(payload []byte, epoch int64, keyframe bool, snap *mem.Snapshot) error {
	off := tw.off
	if err := tw.dataFrame(frameCkpt, payload); err != nil {
		return err
	}
	tw.index.ckpts = append(tw.index.ckpts, ckptRef{
		frameRef: frameRef{off: off, plen: tw.lastPlen, crc: tw.lastCRC},
		epoch:    epoch,
		keyframe: keyframe,
	})
	if snap != nil {
		tw.prevSnap = snap
	}
	return nil
}

// CheckpointSink adapts the writer to core.Options.CheckpointSink.
func (tw *Writer) CheckpointSink() func(*core.Checkpoint) error {
	return tw.WriteCheckpoint
}

// Epochs returns how many epoch frames have been written.
func (tw *Writer) Epochs() int { return len(tw.index.epochs) }

// Ckpts returns how many checkpoint frames have been written.
func (tw *Writer) Ckpts() int { return len(tw.index.ckpts) }

// Keyframes returns how many written checkpoint frames are keyframes.
func (tw *Writer) Keyframes() int { return tw.index.keyframes() }

// Finish writes the summary end marker (an empty summary when sum is nil),
// then the index footer frame and its trailer, and seals the writer. It
// does not close the underlying io.Writer.
func (tw *Writer) Finish(sum *Summary) error {
	if tw.finished {
		return tw.err
	}
	sumOff := tw.off
	sumPayload := appendSummary(nil, sum)
	if err := tw.frame(frameSum, sumPayload); err != nil {
		return err
	}
	tw.finished = true
	tw.index.sum = frameRef{off: sumOff, plen: len(sumPayload), crc: tw.lastCRC}
	indexOff := tw.off
	if err := tw.indexFrame(appendIndex(nil, &tw.index)); err != nil {
		return err
	}
	var trailer [indexTrailerLen]byte
	binary.LittleEndian.PutUint64(trailer[:8], uint64(indexOff))
	copy(trailer[8:], indexTrailerMagic)
	if _, err := tw.w.Write(trailer[:]); err != nil {
		tw.err = fmt.Errorf("trace: writing index trailer: %w", err)
		return tw.err
	}
	tw.off += indexTrailerLen
	return nil
}

// indexFrame emits the index frame; it runs after finished is set, so it
// bypasses the sealed check that guards data frames.
func (tw *Writer) indexFrame(payload []byte) error {
	return tw.frame(frameIndex, payload)
}
