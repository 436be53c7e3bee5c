package trace

// Per-frame compression. A frame whose payload is
// deflate-compressed carries the frameCompressed bit OR-ed into its kind
// byte; the stored payload is then
//
//	compressed payload := rawLen:uvarint deflate(raw)
//
// and the frame's CRC — and its index entry's plen/crc — cover the stored
// (compressed) bytes, so the scan path, the footer index, and readFrameAt's
// triple check all work on what is actually on disk. Decompression happens
// strictly after the CRC check, at the decode sites. Only epoch and
// checkpoint frame bodies are ever compressed: the header, summary, and
// index frames stay raw so open, inventory, and salvage never need inflate
// to locate anything. A frame that would not shrink is stored raw (no flag
// bit), so pathological payloads cost nothing.

import (
	"bytes"
	"compress/flate"
	"fmt"
	"io"
	"time"

	"repro/internal/obs"
)

// frameCompressed marks a deflate-compressed frame payload; it is OR-ed
// into the kind byte, keeping kinds 1..5 free for the frame taxonomy.
const frameCompressed byte = 0x80

// maxFramePayload is the generic bound on any frame payload, stored or
// decompressed — shared by the sequential walk, the index decoder, and the
// inflate path so a corrupt length can never drive the allocation.
const maxFramePayload = 1 << 30

// inflatePayload strips the compression bit and, when set, inflates the
// stored payload. The declared raw length is validated before allocating
// and the deflate stream must decode to exactly that many bytes — a
// stream that is short, long, or malformed is a corruption error, never a
// panic or an oversized allocation.
func inflatePayload(kind byte, payload []byte) (byte, []byte, error) {
	if kind&frameCompressed == 0 {
		return kind, payload, nil
	}
	defer obs.TraceInflate.ObserveSince(time.Now()) //ir:wallclock inflate latency telemetry
	kind &^= frameCompressed
	d := &decoder{b: payload}
	rawLen, err := d.uvarint()
	if err != nil {
		return 0, nil, fmt.Errorf("trace: compressed frame: %w", err)
	}
	if rawLen > maxFramePayload {
		return 0, nil, fmt.Errorf("trace: compressed frame declares implausible raw size %d", rawLen)
	}
	raw := make([]byte, rawLen)
	zr := flate.NewReader(bytes.NewReader(d.b[d.off:]))
	defer zr.Close()
	if _, err := io.ReadFull(zr, raw); err != nil {
		return 0, nil, fmt.Errorf("trace: inflating frame: %w", err)
	}
	var one [1]byte
	if n, _ := zr.Read(one[:]); n != 0 {
		return 0, nil, fmt.Errorf("trace: compressed frame inflates past its declared %d bytes", rawLen)
	}
	return kind, raw, nil
}

// deflater compresses frame payloads for a Writer, reusing one flate
// writer and one staging buffer across frames.
type deflater struct {
	zw  *flate.Writer
	buf bytes.Buffer
}

// deflate returns the stored form of payload — rawLen varint plus deflate
// stream — and whether compression paid. When the stored form would not be
// smaller than the raw payload, it returns (nil, false) and the caller
// stores the frame uncompressed. The returned slice is valid until the
// next deflate call.
func (z *deflater) deflate(payload []byte) ([]byte, bool) {
	z.buf.Reset()
	z.buf.Write(putUvarint(nil, uint64(len(payload))))
	if z.zw == nil {
		// DefaultCompression: these frames are written once (compact, spill)
		// and fetched many times; favor ratio over encode speed.
		z.zw, _ = flate.NewWriter(&z.buf, flate.DefaultCompression)
	} else {
		z.zw.Reset(&z.buf)
	}
	if _, err := z.zw.Write(payload); err != nil {
		return nil, false
	}
	if err := z.zw.Close(); err != nil {
		return nil, false
	}
	if z.buf.Len() >= len(payload) {
		return nil, false
	}
	return z.buf.Bytes(), true
}
