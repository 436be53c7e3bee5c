package trace

// This file is the one place file bytes become frames: the footer index
// that makes a finished trace random-access, and the sequential walk that
// builds the same index for a file without a usable footer. Both feed
// Handle; both pass every frame through parseFrame.
//
// The index is a footer frame mapping every epoch and checkpoint frame to
// its byte offset, payload length, and CRC, plus the summary frame's
// location — so opening a trace for inventory (ls, job validation) or
// random access (Handle.Epochs, Handle.CheckpointAt) costs one footer read
// instead of a whole-file scan.
//
// Layout. The index is an ordinary CRC-framed frame (kind 5) written after
// the summary end marker, followed by a fixed 12-byte trailer:
//
//	trailer := indexOff:8 (LE, offset of the index frame's kind byte) "IRX3"
//
// index payload :=
//	epochCount:uv  { offDelta:uv plen:uv crc:uv seqDelta:uv events:uv }*
//	ckptCount:uv   { offDelta:uv plen:uv crc:uv epoch:uv flags:uv }*
//	sumOff:uv sumPlen:uv sumCRC:uv
//
// Offsets are delta-encoded in file order (strictly increasing); epoch
// sequence numbers likewise. Flags carry the checkpoint frame's keyframe
// bit so folding policy is known without decoding checkpoint payloads.
//
// Failure policy (the contract the corrupt-trace corpus pins): a missing
// or unparseable index region — no trailer magic, torn index frame,
// flipped index CRC — degrades to the sequential scan, exactly as an
// unfinished recording opens; an index that parses but lies — indexed
// frames that do not tile the data region (a gap, an overlap, a frame left
// out, an offset past it), or an offset that lands on a frame of a
// different kind when fetched — is hard corruption. Footer-open and
// scan-open therefore accept exactly the same files.

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
)

// indexTrailer is the fixed-size locator after the index frame.
const (
	indexTrailerLen   = 12
	indexTrailerMagic = "IRX3"
)

// frameRef locates one frame: the file offset of its kind byte, its
// payload length, and its payload CRC.
type frameRef struct {
	off  int64
	plen int
	crc  uint32
}

// size returns the frame's total on-disk size (kind + length varint +
// payload + CRC).
func (r frameRef) size() int64 {
	return 1 + int64(uvarintLen(uint64(r.plen))) + int64(r.plen) + 4
}

// epochRef is an epoch frame plus the metadata inventory scans need.
type epochRef struct {
	frameRef
	seq    int64 // 1-based epoch sequence number
	events int64
}

// ckptRef is a checkpoint frame plus its epoch and keyframe bit.
type ckptRef struct {
	frameRef
	epoch    int64
	keyframe bool
}

// fileIndex is the random-access map of one trace file, built from the
// footer or — for a file without a usable one — a one-time sequential scan.
type fileIndex struct {
	epochs []epochRef
	ckpts  []ckptRef
	sum    frameRef
	// complete reports whether the file ends with its summary frame.
	complete bool
	// footer reports whether the index was served by the footer frame
	// (false: built by scanning).
	footer bool
}

// events sums the indexed per-epoch event counts.
func (ix *fileIndex) events() int64 {
	var n int64
	for i := range ix.epochs {
		n += ix.epochs[i].events
	}
	return n
}

// keyframes counts checkpoints carrying the keyframe bit.
func (ix *fileIndex) keyframes() int {
	n := 0
	for i := range ix.ckpts {
		if ix.ckpts[i].keyframe {
			n++
		}
	}
	return n
}

// foldBase returns the nearest keyframe at or before checkpoint k — where
// a fold that has to reach k starts.
func (ix *fileIndex) foldBase(k int) int {
	for k > 0 && !ix.ckpts[k].keyframe {
		k--
	}
	return k
}

// dropTrailingCkpts removes checkpoints past the last epoch frame: a
// checkpoint frame precedes the epoch it begins, so a recorder killed
// after flushing a checkpoint but before its epoch leaves one that pins
// nothing. The prefix stays usable, for segment replay and re-encoding
// alike.
func (ix *fileIndex) dropTrailingCkpts() {
	lastSeq := int64(0)
	if n := len(ix.epochs); n > 0 {
		lastSeq = ix.epochs[n-1].seq
	}
	for len(ix.ckpts) > 0 && ix.ckpts[len(ix.ckpts)-1].epoch > lastSeq {
		ix.ckpts = ix.ckpts[:len(ix.ckpts)-1]
	}
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// appendIndex serializes the index frame payload.
func appendIndex(b []byte, ix *fileIndex) []byte {
	b = putUvarint(b, uint64(len(ix.epochs)))
	var prevOff, prevSeq int64
	for i := range ix.epochs {
		e := &ix.epochs[i]
		b = putUvarint(b, uint64(e.off-prevOff))
		b = putUvarint(b, uint64(e.plen))
		b = putUvarint(b, uint64(e.crc))
		b = putUvarint(b, uint64(e.seq-prevSeq))
		b = putUvarint(b, uint64(e.events))
		prevOff, prevSeq = e.off, e.seq
	}
	b = putUvarint(b, uint64(len(ix.ckpts)))
	prevOff = 0
	for i := range ix.ckpts {
		c := &ix.ckpts[i]
		b = putUvarint(b, uint64(c.off-prevOff))
		b = putUvarint(b, uint64(c.plen))
		b = putUvarint(b, uint64(c.crc))
		b = putUvarint(b, uint64(c.epoch))
		var flags uint64
		if c.keyframe {
			flags |= ckKeyframe
		}
		b = putUvarint(b, flags)
		prevOff = c.off
	}
	b = putUvarint(b, uint64(ix.sum.off))
	b = putUvarint(b, uint64(ix.sum.plen))
	b = putUvarint(b, uint64(ix.sum.crc))
	return b
}

// decodeIndex parses an index frame payload. It validates shape and
// bounds every claimed length by maxFramePayload — the bound the
// sequential walk applies — so a lying index can never drive an allocation
// (or a signed overflow) before validation; validateIndex checks the
// offsets against the file.
func decodeIndex(payload []byte) (*fileIndex, error) {
	d := &decoder{b: payload}
	ix := &fileIndex{complete: true, footer: true}
	ref := func(what string, i int, dOff, plen, crc uint64, prevOff int64) (frameRef, error) {
		if plen > maxFramePayload {
			return frameRef{}, fmt.Errorf("trace: index %s %d claims implausible payload length %d", what, i, plen)
		}
		if crc > 1<<32-1 {
			return frameRef{}, fmt.Errorf("trace: index %s %d CRC overflows 32 bits", what, i)
		}
		off := prevOff + int64(dOff)
		if off < 0 || dOff > 1<<62 {
			return frameRef{}, fmt.Errorf("trace: index %s %d offset overflows", what, i)
		}
		return frameRef{off: off, plen: int(plen), crc: uint32(crc)}, nil
	}
	nEpochs, err := d.count()
	if err != nil {
		return nil, err
	}
	ix.epochs = make([]epochRef, nEpochs)
	var prevOff, prevSeq int64
	for i := 0; i < nEpochs; i++ {
		e := &ix.epochs[i]
		dOff, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		plen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		crc, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		dSeq, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		events, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if e.frameRef, err = ref("epoch", i, dOff, plen, crc, prevOff); err != nil {
			return nil, err
		}
		e.seq = prevSeq + int64(dSeq)
		e.events = int64(events)
		prevOff, prevSeq = e.off, e.seq
	}
	nCkpts, err := d.count()
	if err != nil {
		return nil, err
	}
	ix.ckpts = make([]ckptRef, nCkpts)
	prevOff = 0
	for i := 0; i < nCkpts; i++ {
		c := &ix.ckpts[i]
		dOff, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		plen, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		crc, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		epoch, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		flags, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		if c.frameRef, err = ref("checkpoint", i, dOff, plen, crc, prevOff); err != nil {
			return nil, err
		}
		c.epoch = int64(epoch)
		c.keyframe = flags&ckKeyframe != 0
		prevOff = c.off
	}
	sumOff, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	sumPlen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	sumCRC, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	if ix.sum, err = ref("summary", 0, sumOff, sumPlen, sumCRC, 0); err != nil {
		return nil, err
	}
	if !d.done() {
		return nil, fmt.Errorf("trace: %d trailing bytes in index frame", len(d.b)-d.off)
	}
	return ix, nil
}

// validateIndex checks a footer-served index against the file: the indexed
// frames must tile the data region — the first starts where the header
// frame ends, each next one (across the merged epoch and checkpoint lists)
// where the previous ends, the summary after the last, and the index frame
// right after the summary — with strictly increasing epoch sequence
// numbers. The tiling is what makes footer-open and scan-open accept
// exactly the same files: no byte of the data region can go unindexed and
// so unchecked. An index that fails here parsed fine but lies about the
// file — hard corruption, never a degrade.
func validateIndex(ix *fileIndex, hdrEnd, indexOff int64) error {
	next := hdrEnd
	tile := func(r frameRef, what string, i int) error {
		if r.off != next {
			return fmt.Errorf("trace: index %s %d at offset %d, want %d: indexed frames must tile the data region [%d,%d)",
				what, i, r.off, next, hdrEnd, indexOff)
		}
		next += r.size()
		return nil
	}
	ei, ci := 0, 0
	for ei < len(ix.epochs) || ci < len(ix.ckpts) {
		if ci == len(ix.ckpts) || ei < len(ix.epochs) && ix.epochs[ei].off < ix.ckpts[ci].off {
			e := &ix.epochs[ei]
			if ei > 0 && e.seq <= ix.epochs[ei-1].seq {
				return fmt.Errorf("trace: index epoch %d not monotonic (seq %d after %d)", ei, e.seq, ix.epochs[ei-1].seq)
			}
			if err := tile(e.frameRef, "epoch", ei); err != nil {
				return err
			}
			ei++
		} else {
			if err := tile(ix.ckpts[ci].frameRef, "checkpoint", ci); err != nil {
				return err
			}
			ci++
		}
	}
	if err := tile(ix.sum, "summary", 0); err != nil {
		return err
	}
	if next != indexOff {
		return fmt.Errorf("trace: summary frame ends at %d, index frame starts at %d", next, indexOff)
	}
	return nil
}

// loadFooterIndex reads and validates the footer index of src. Returns
// (nil, nil) when no parseable index region is present — the
// degrade-to-scan signal — and a non-nil error only for an index that
// parsed and lies (hard corruption).
func loadFooterIndex(src io.ReaderAt, size, hdrEnd int64) (*fileIndex, error) {
	var trailer [indexTrailerLen]byte
	if size < hdrEnd+indexTrailerLen {
		return nil, nil
	}
	if _, err := src.ReadAt(trailer[:], size-indexTrailerLen); err != nil {
		return nil, nil
	}
	if string(trailer[8:]) != indexTrailerMagic {
		return nil, nil
	}
	indexOff := int64(binary.LittleEndian.Uint64(trailer[:8]))
	frameEnd := size - indexTrailerLen
	const maxIndexFrame = 1 << 28
	if indexOff < hdrEnd || indexOff >= frameEnd || frameEnd-indexOff > maxIndexFrame {
		return nil, nil // trailer present but points nowhere parseable
	}
	buf := make([]byte, frameEnd-indexOff)
	if _, err := src.ReadAt(buf, indexOff); err != nil {
		return nil, nil
	}
	fr, err := parseFrame(buf, indexOff)
	if err != nil || fr.kind != frameIndex {
		return nil, nil
	}
	ix, err := decodeIndex(fr.stored)
	if err != nil {
		return nil, nil // unparseable payload: degrade like a torn index
	}
	if err := validateIndex(ix, hdrEnd, indexOff); err != nil {
		return nil, err
	}
	return ix, nil
}

// rawFrame is one frame as stored: its kind byte (compression bit and
// all), its stored — possibly compressed — payload, and that payload's
// CRC, already verified against the frame's own checksum.
type rawFrame struct {
	kind   byte
	stored []byte
	crc    uint32
}

// parseFrame splits one whole frame held in buf — kind byte, length
// varint, payload, checksum — and verifies the stored CRC against the
// payload: the framing check every byte that becomes a trace passes, on
// the indexed fetch and the sequential walk alike. Inflating is the
// caller's next step, strictly after this check. On error only the kind is
// set.
func parseFrame(buf []byte, off int64) (rawFrame, error) {
	fr := rawFrame{kind: buf[0]}
	plen, w := binary.Uvarint(buf[1:])
	if w <= 0 || int64(1+w)+int64(plen)+4 != int64(len(buf)) {
		return fr, fmt.Errorf("trace: frame at %d declares %d payload bytes in a %d-byte frame", off, plen, len(buf))
	}
	stored := buf[1+w : len(buf)-4]
	want := binary.LittleEndian.Uint32(buf[len(buf)-4:])
	if got := crc32.ChecksumIEEE(stored); got != want {
		return fr, fmt.Errorf("trace: frame at %d fails its checksum (%#x stored, %#x computed)", off, want, got)
	}
	fr.stored, fr.crc = stored, want
	return fr, nil
}

// frameAt reads the frame whose kind byte sits at off in a stream of size
// bytes — the sequential walk's step, where no index says how long the
// frame is. The length varint is bounded by the bytes that remain and by
// maxFramePayload before anything is allocated, so a flipped length bit
// costs an error, never gigabytes. The frame's kind is set whenever its
// first byte could be read, even when err is (the tail check needs to tell
// a damaged index frame from foreign data); end is the offset just past
// the frame.
func frameAt(src io.ReaderAt, off, size int64) (fr rawFrame, end int64, err error) {
	if off >= size {
		return fr, 0, fmt.Errorf("trace: reading frame at %d: %w", off, io.ErrUnexpectedEOF)
	}
	var head [1 + binary.MaxVarintLen64]byte
	n, rerr := src.ReadAt(head[:min(int64(len(head)), size-off)], off)
	if n == 0 {
		return fr, 0, fmt.Errorf("trace: reading frame at %d: %w", off, rerr)
	}
	fr.kind = head[0]
	plen, w := binary.Uvarint(head[1:n])
	if w <= 0 {
		return fr, 0, fmt.Errorf("trace: torn or malformed frame length at %d", off)
	}
	if left := size - off - int64(1+w); plen > maxFramePayload || int64(plen)+4 > left {
		return fr, 0, fmt.Errorf("trace: implausible frame length %d at %d with %d bytes left", plen, off, left)
	}
	buf := make([]byte, 1+w+int(plen)+4)
	if _, err := src.ReadAt(buf, off); err != nil {
		return fr, 0, fmt.Errorf("trace: reading frame at %d: %w", off, err)
	}
	fr, err = parseFrame(buf, off)
	return fr, off + int64(len(buf)), err
}

// readFrameAt fetches one indexed frame by pread and verifies it against
// the index: the kind byte (ignoring the compression bit), the stored
// payload length, and the CRC (checked both against the stored frame
// checksum and the index's copy). A mismatch means the index and the file
// disagree — hard corruption. Compressed frames are inflated only after
// every check passes; the caller always receives the raw payload.
func readFrameAt(src io.ReaderAt, ref frameRef, want byte) ([]byte, error) {
	buf := make([]byte, ref.size())
	if _, err := src.ReadAt(buf, ref.off); err != nil {
		return nil, fmt.Errorf("trace: reading indexed frame at %d: %w", ref.off, err)
	}
	if buf[0]&^frameCompressed != want {
		return nil, fmt.Errorf("trace: index points at frame kind %d at offset %d, want kind %d",
			buf[0], ref.off, want)
	}
	fr, err := parseFrame(buf, ref.off)
	if err != nil {
		return nil, fmt.Errorf("%w (index says %d payload bytes, checksum %#x)", err, ref.plen, ref.crc)
	}
	if len(fr.stored) != ref.plen || fr.crc != ref.crc {
		return nil, fmt.Errorf("trace: indexed frame at %d holds %d payload bytes with checksum %#x, index says %d and %#x",
			ref.off, len(fr.stored), fr.crc, ref.plen, ref.crc)
	}
	_, raw, err := inflatePayload(fr.kind, fr.stored)
	if err != nil {
		return nil, fmt.Errorf("trace: indexed frame at %d: %w", ref.off, err)
	}
	return raw, nil
}

// readHeader validates the magic and decodes the header frame, returning
// the offset just past it — where the data region starts.
func readHeader(src io.ReaderAt, size int64) (Header, int64, error) {
	magic := make([]byte, len(Magic))
	if _, err := src.ReadAt(magic, 0); err != nil {
		return Header{}, 0, fmt.Errorf("trace: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return Header{}, 0, fmt.Errorf("trace: bad magic %q", magic)
	}
	fr, end, err := frameAt(src, int64(len(Magic)), size)
	if err != nil {
		return Header{}, 0, fmt.Errorf("trace: reading header frame: %w", err)
	}
	if fr.kind != frameHeader {
		return Header{}, 0, fmt.Errorf("trace: first frame has kind %d, want header", fr.kind)
	}
	hdr, err := decodeHeader(fr.stored)
	return hdr, end, err
}

// openIndex is the one way bytes become a trace: it validates the magic
// and header frame, then serves the index from the footer when intact and
// from the sequential scan otherwise. Hard index corruption
// (validateIndex) propagates. salvage is the crash-recovery switch
// (OpenPrefix): the footer is not consulted — only checksummed frames are
// trusted — and the first torn or corrupt frame ends the trace instead of
// failing it.
func openIndex(src io.ReaderAt, size int64, salvage bool) (Header, *fileIndex, error) {
	hdr, hdrEnd, err := readHeader(src, size)
	if err != nil {
		return Header{}, nil, err
	}
	var ix *fileIndex
	if !salvage {
		if ix, err = loadFooterIndex(src, size, hdrEnd); err != nil {
			return Header{}, nil, err
		}
	}
	if ix == nil {
		if ix, err = scanIndex(src, hdrEnd, size); err != nil && !salvage {
			return Header{}, nil, err
		}
	}
	ix.dropTrailingCkpts()
	return hdr, ix, nil
}

// scanIndex builds a fileIndex by walking every frame from off (the end of
// the header frame) to the end of the stream, CRC-checking each — the open
// path for files without a usable footer: unfinished recordings, flight
// rings, and damaged index regions. Statistics come from frame-leading
// fields (peekEpochMeta/peekCheckpointMeta); payloads are never fully
// decoded. A stream that ends cleanly after any whole frame is valid — a
// recorder killed mid-run leaves a usable prefix. On error the index holds
// the frames before the offending one (what a salvage keeps).
func scanIndex(src io.ReaderAt, off, size int64) (*fileIndex, error) {
	ix := &fileIndex{}
	for off < size {
		fr, end, err := frameAt(src, off, size)
		if err != nil {
			return ix, err
		}
		// The ref describes the stored (possibly compressed) payload — that
		// is what readFrameAt will fetch and checksum — while the statistics
		// peeks below need the raw bytes.
		ref := frameRef{off: off, plen: len(fr.stored), crc: fr.crc}
		kind, raw, err := inflatePayload(fr.kind, fr.stored)
		if err != nil {
			return ix, err
		}
		switch kind {
		case frameEpoch:
			seq, events, err := peekEpochMeta(raw)
			if err != nil {
				return ix, err
			}
			ix.epochs = append(ix.epochs, epochRef{frameRef: ref, seq: seq, events: events})
		case frameCkpt:
			epoch, keyframe, err := peekCheckpointMeta(raw)
			if err != nil {
				return ix, err
			}
			ix.ckpts = append(ix.ckpts, ckptRef{frameRef: ref, epoch: epoch, keyframe: keyframe})
		case frameSum:
			ix.sum, ix.complete = ref, true
			return ix, checkTail(src, end, size)
		default:
			return ix, fmt.Errorf("trace: unexpected frame kind %d at %d", kind, off)
		}
		off = end
	}
	return ix, nil
}

// checkTail polices the bytes after the summary end marker at off. A
// finished file carries the index frame and its 12-byte trailer there: a
// torn or CRC-damaged index region is ignored (the scanned content
// stands), while trailing content that is not an index region — or content
// after a valid one — is corruption.
func checkTail(src io.ReaderAt, off, size int64) error {
	if off == size {
		return nil
	}
	fr, end, err := frameAt(src, off, size)
	switch {
	case fr.kind != frameIndex:
		return fmt.Errorf("trace: data after summary frame (kind %d)", fr.kind)
	case err != nil:
		return nil
	case size-end > indexTrailerLen:
		return fmt.Errorf("trace: %d trailing bytes after index frame", size-end-indexTrailerLen)
	}
	return nil
}
