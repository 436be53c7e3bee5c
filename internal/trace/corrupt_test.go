package trace

// Corrupt-trace corpus: every way a stored trace can rot — truncated
// mid-frame, flipped CRC, trailing garbage, implausible frame length, a
// foreign header version, and damaged or lying index regions — with the
// required behavior
// of Load (error), List (degraded entry that hides nothing), scanning
// (error), and the index failure policy (unparseable index degrades to the
// scan path; an index that lies is hard corruption) asserted for each.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"repro/internal/record"
)

// corpusTrace builds a small, fully valid two-epoch trace (summary, index
// frame, trailer).
func corpusTrace(t *testing.T) []byte {
	t.Helper()
	tr := &Trace{
		Header: Header{Version: Version, App: "corpus", ModuleHash: 7, EventCap: 16, VarCap: 16},
		Epochs: []*record.EpochLog{
			{
				Epoch: 1,
				Threads: []record.ThreadLog{{TID: 0, Events: []record.Event{
					{Kind: record.KMutexLock, Var: 0x1000, Pos: 0},
				}}},
				Vars: []record.VarLog{{Addr: 0x1000, Order: []int32{0}}},
			},
			{
				Epoch: 2,
				Threads: []record.ThreadLog{{TID: 0, Events: []record.Event{
					{Kind: record.KExit, Pos: -1},
				}}},
			},
		},
		Summary: &Summary{Exit: 3, Output: "1\n"},
	}
	b, err := Encode(tr)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// scanBytes indexes encoded trace bytes by the sequential walk alone,
// ignoring any footer — the forced-scan open.
func scanBytes(b []byte) (Header, *fileIndex, error) {
	src, size := bytes.NewReader(b), int64(len(b))
	hdr, hdrEnd, err := readHeader(src, size)
	if err != nil {
		return Header{}, nil, err
	}
	ix, err := scanIndex(src, hdrEnd, size)
	if err != nil {
		return Header{}, nil, err
	}
	ix.dropTrailingCkpts()
	return hdr, ix, nil
}

// withHeaderVersion returns the corpus trace with its header frame
// declaring ver (checksum fixed up), every other byte untouched.
func withHeaderVersion(t *testing.T, ver byte) []byte {
	t.Helper()
	b := corpusTrace(t)
	off := len(Magic) + 1
	n, w := binary.Uvarint(b[off:])
	payload := b[off+w : off+w+int(n)]
	if payload[0] != Version {
		t.Fatalf("header does not lead with the version varint: %d", payload[0])
	}
	payload[0] = ver
	binary.LittleEndian.PutUint32(b[off+w+int(n):], crc32ieee(payload))
	return b
}

// frameSpan is one frame's location in an encoded trace.
type frameSpan struct {
	kind       byte
	start, end int
}

// frameSpans walks the frames of a well-formed encoded trace. For finished
// encodings the fixed trailer is excluded from the walk.
func frameSpans(t *testing.T, b []byte) []frameSpan {
	t.Helper()
	end := len(b)
	if end >= indexTrailerLen && string(b[end-4:]) == indexTrailerMagic {
		end -= indexTrailerLen
	}
	var out []frameSpan
	off := len(Magic)
	for off < end {
		kind := b[off]
		n, w := binary.Uvarint(b[off+1:])
		if w <= 0 {
			t.Fatalf("malformed corpus bytes at offset %d", off)
		}
		next := off + 1 + w + int(n) + 4
		out = append(out, frameSpan{kind: kind, start: off, end: next})
		off = next
	}
	return out
}

// firstSpan returns the first frame of the given kind.
func firstSpan(t *testing.T, spans []frameSpan, kind byte) frameSpan {
	t.Helper()
	for _, s := range spans {
		if s.kind == kind {
			return s
		}
	}
	t.Fatalf("no frame of kind %d", kind)
	return frameSpan{}
}

// corruptions returns the corpus: name -> mutated bytes. Every mutation
// damages the trace's data region, so Load, Decode, and the scan must all
// reject it.
func corruptions(t *testing.T, valid []byte) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	spans := frameSpans(t, valid)
	ep := firstSpan(t, spans, frameEpoch)

	// Truncated mid-frame: cut inside the first epoch frame's payload.
	out["truncated-mid-frame"] = append([]byte(nil), valid[:ep.start+5]...)

	// Flipped CRC: invert one bit of the first epoch frame's checksum.
	flipped := append([]byte(nil), valid...)
	flipped[ep.end-1] ^= 0x01
	out["flipped-crc"] = flipped

	// Flipped payload byte inside the epoch frame: the index (which stores
	// the original CRC) and the frame now disagree; both the scan path and
	// the indexed fetch path must reject it.
	body := append([]byte(nil), valid...)
	body[ep.start+3] ^= 0xff
	out["flipped-payload"] = body

	// Trailing garbage after the complete (index + trailer) file.
	out["trailing-garbage"] = append(append([]byte(nil), valid...), 0xde, 0xad, 0xbe, 0xef)

	// A trailing *valid* frame after the end of the file: decodes
	// frame-wise but is corruption, because nothing may follow the index
	// region.
	var epPayload []byte
	epPayload = appendEpoch(nil, &record.EpochLog{Epoch: 3, Threads: []record.ThreadLog{{TID: 0}}})
	trailing := append([]byte(nil), valid...)
	trailing = append(trailing, frameEpoch)
	trailing = binary.AppendUvarint(trailing, uint64(len(epPayload)))
	trailing = append(trailing, epPayload...)
	var crc [4]byte
	binary.LittleEndian.PutUint32(crc[:], crc32ieee(epPayload))
	out["trailing-frame"] = append(trailing, crc[:]...)

	// Truncated right after a frame's length varint: zero payload bytes
	// present where the length promises some. A bare io.EOF here must not
	// pass for a clean frame-boundary truncation.
	afterLen := append([]byte(nil), valid...)
	afterLen = append(afterLen, frameEpoch)
	afterLen = binary.AppendUvarint(afterLen, 5)
	out["truncated-after-length"] = afterLen

	// Implausible frame length: a huge length varint right after the header
	// frame. Must be rejected by the size bound before any allocation.
	hdrEnd := headerFrameEnd(t, valid)
	huge := append([]byte(nil), valid[:hdrEnd]...)
	huge = append(huge, frameEpoch)
	huge = binary.AppendUvarint(huge, 1<<40)
	huge = append(huge, 0x01, 0x02)
	out["implausible-length"] = huge

	return out
}

func crc32ieee(b []byte) uint32 {
	// mirrors the writer's framing checksum
	return crc32.ChecksumIEEE(b)
}

// headerFrameEnd returns the offset just past the header frame.
func headerFrameEnd(t *testing.T, b []byte) int {
	t.Helper()
	off := len(Magic) + 1 // magic + kind
	n, w := binary.Uvarint(b[off:])
	if w <= 0 {
		t.Fatal("malformed corpus bytes")
	}
	return off + w + int(n) + 4
}

// TestOtherVersionsRejected: there is one format version. A header
// declaring an older (1–3) or newer (5) one is refused at open with an
// error naming the supported version — by the in-memory open and the store
// alike — and in a listing it degrades its own entry without hiding its
// healthy neighbour.
func TestOtherVersionsRejected(t *testing.T) {
	supported := fmt.Sprintf("version %d", Version)
	for _, ver := range []byte{1, 2, 3, Version + 1} {
		t.Run(fmt.Sprintf("v%d", ver), func(t *testing.T) {
			b := withHeaderVersion(t, ver)
			if _, err := OpenBytes(b); err == nil || !strings.Contains(err.Error(), supported) {
				t.Fatalf("OpenBytes of a v%d header: %v, want an error naming %s", ver, err, supported)
			}
			if _, err := Decode(b); err == nil {
				t.Fatalf("v%d header decoded", ver)
			}
			st := storeWith(t, "other", b)
			if err := os.WriteFile(st.Path("healthy"), corpusTrace(t), 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Open("other"); err == nil || !strings.Contains(err.Error(), supported) {
				t.Fatalf("Store.Open of a v%d header: %v, want an error naming %s", ver, err, supported)
			}
			entries, err := st.List()
			if err != nil || len(entries) != 2 {
				t.Fatalf("List = %+v (%v), want both entries", entries, err)
			}
			if e := entries[0]; e.Name != "healthy" || e.Err != nil || !e.Complete || e.Epochs != 2 || e.Header.Version != Version {
				t.Fatalf("healthy entry damaged by its neighbour: %+v", e)
			}
			if e := entries[1]; e.Name != "other" || e.Err == nil || e.Header.App != "" {
				t.Fatalf("v%d entry not degraded: %+v", ver, e)
			}
		})
	}
}

func TestCorruptTraceCorpus(t *testing.T) {
	valid := corpusTrace(t)
	if _, err := Decode(valid); err != nil {
		t.Fatalf("pristine corpus trace failed to decode: %v", err)
	}

	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// One healthy neighbour that corruption must never hide.
	if err := os.WriteFile(st.Path("healthy"), valid, 0o644); err != nil {
		t.Fatal(err)
	}

	for name, mut := range corruptions(t, valid) {
		t.Run(name, func(t *testing.T) {
			// Decode rejects the bytes.
			if _, err := Decode(mut); err == nil {
				t.Fatal("corrupt trace decoded without error")
			}
			// Load rejects the file.
			if err := os.WriteFile(st.Path(name), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := st.Load(name); err == nil {
				t.Fatal("Load served a corrupt trace")
			}
			// The sequential scan errors.
			if _, _, err := scanBytes(mut); err == nil {
				t.Fatal("scanIndex accepted a corrupt trace")
			}
			// List degrades the entry and keeps the healthy neighbour whole.
			entries, err := st.List()
			if err != nil {
				t.Fatalf("List aborted on a corrupt file: %v", err)
			}
			var sawBad, sawHealthy bool
			for _, e := range entries {
				switch e.Name {
				case name:
					sawBad = true
					if name == "flipped-payload" || name == "flipped-crc" {
						// The footer still parses (it fingerprints payloads,
						// and the summary/trailer are intact), so the
						// inventory entry stays clean; the damaged frame is
						// discovered on fetch — Load above already failed.
						break
					}
					if e.Err == nil || e.Header.App != "" {
						t.Fatalf("corrupt entry not degraded: %+v", e)
					}
				case "healthy":
					sawHealthy = true
					if e.Err != nil || e.Header.App != "corpus" || !e.Complete || e.Epochs != 2 {
						t.Fatalf("healthy entry damaged by neighbour: %+v", e)
					}
				}
			}
			if !sawBad || !sawHealthy {
				t.Fatalf("List hid entries: %+v", entries)
			}
			os.Remove(st.Path(name))
		})
	}
}

// TestV3IndexDamageDegradesToScan: a damaged index region — torn index
// frame, flipped index CRC, truncated trailer — must not cost the trace:
// it loads through the scan path with a clean Entry, exactly as an
// unfinished recording would, just without the one-read open.
func TestV3IndexDamageDegradesToScan(t *testing.T) {
	valid := corpusTrace(t)
	spans := frameSpans(t, valid)
	ix := firstSpan(t, spans, frameIndex)

	cases := map[string][]byte{}
	// Torn index frame: cut mid-payload (the trailer goes with it).
	cases["torn-index"] = append([]byte(nil), valid[:ix.start+5]...)
	// Flipped index CRC byte: frame present but fails its checksum.
	fl := append([]byte(nil), valid...)
	fl[ix.end-1] ^= 0x01
	cases["flipped-index-crc"] = fl
	// Truncated trailer: index frame intact, locator gone.
	cases["truncated-trailer"] = append([]byte(nil), valid[:len(valid)-5]...)

	for name, mut := range cases {
		t.Run(name, func(t *testing.T) {
			tr, err := Decode(mut)
			if err != nil {
				t.Fatalf("damaged index region failed to salvage: %v", err)
			}
			if len(tr.Epochs) != 2 || tr.Summary == nil {
				t.Fatalf("salvaged decode = %d epochs, summary %v", len(tr.Epochs), tr.Summary)
			}
			st, err := OpenStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(st.Path("x"), mut, 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := st.Entry("x")
			if err != nil || e.Err != nil {
				t.Fatalf("entry degraded by index damage: %+v (%v)", e, err)
			}
			if e.Indexed || !e.Complete || e.Epochs != 2 {
				t.Fatalf("entry = %+v, want scan-served complete trace", e)
			}
			got, err := st.Load("x")
			if err != nil || len(got.Epochs) != 2 {
				t.Fatalf("Load after index damage: %v", err)
			}
		})
	}
}

// TestV3IndexLiesAreCorruption: an index that parses but lies about the
// file — offsets outside the data region, indexed frames that leave a gap
// or a frame out, or offsets landing on frames of a different kind — is
// hard corruption, never a silent degrade.
func TestV3IndexLiesAreCorruption(t *testing.T) {
	valid := corpusTrace(t)
	spans := frameSpans(t, valid)
	ixSpan := firstSpan(t, spans, frameIndex)

	// reindexed closes a data region (everything up to and including the
	// summary frame) with a footer built from the corpus index after
	// mutate has had its way with it.
	reindexed := func(data []byte, mutate func(*fileIndex)) []byte {
		n, w := binary.Uvarint(valid[ixSpan.start+1:])
		payload := valid[ixSpan.start+1+w : ixSpan.start+1+w+int(n)]
		ix, err := decodeIndex(payload)
		if err != nil {
			t.Fatal(err)
		}
		mutate(ix)
		out := append([]byte(nil), data...)
		newPayload := appendIndex(nil, ix)
		out = append(out, frameIndex)
		out = binary.AppendUvarint(out, uint64(len(newPayload)))
		out = append(out, newPayload...)
		var crc [4]byte
		binary.LittleEndian.PutUint32(crc[:], crc32ieee(newPayload))
		out = append(out, crc[:]...)
		var trailer [indexTrailerLen]byte
		binary.LittleEndian.PutUint64(trailer[:8], uint64(len(data)))
		copy(trailer[8:], indexTrailerMagic)
		return append(out, trailer[:]...)
	}
	// withMutatedIndex re-frames the corpus trace with a mutated index.
	withMutatedIndex := func(mutate func(*fileIndex)) []byte {
		return reindexed(valid[:ixSpan.start], mutate)
	}
	// spliced inserts extra bytes before the corpus trace's second epoch
	// frame and rebuilds the footer around them: every indexed frame is
	// where the index says, with the CRC it says — only the extra bytes
	// are unaccounted for.
	spliced := func(extra []byte) []byte {
		at := spans[2].start // header, epoch 1, epoch 2, ...
		if spans[2].kind != frameEpoch {
			t.Fatalf("corpus frame 2 has kind %d, want the second epoch", spans[2].kind)
		}
		data := append(append(append([]byte(nil), valid[:at]...), extra...), valid[at:ixSpan.start]...)
		return reindexed(data, func(ix *fileIndex) {
			ix.epochs[1].off += int64(len(extra))
			ix.sum.off += int64(len(extra))
		})
	}
	// rejectedEverywhere: the footer open refuses the bytes as hard
	// corruption — in memory, through the store, and in the inventory.
	rejectedEverywhere := func(t *testing.T, mut []byte) {
		t.Helper()
		if _, err := OpenBytes(mut); err == nil || !strings.Contains(err.Error(), "tile") {
			t.Fatalf("OpenBytes: %v, want the tiling error", err)
		}
		if _, err := Decode(mut); err == nil {
			t.Fatal("Decode accepted an index that does not tile the data region")
		}
		st := storeWith(t, "liar", mut)
		if _, err := st.Open("liar"); err == nil {
			t.Fatal("Store.Open accepted an index that does not tile the data region")
		}
		if e, err := st.Entry("liar"); err != nil || e.Err == nil {
			t.Fatalf("entry = %+v (%v), want a degraded entry", e, err)
		}
	}

	t.Run("index-gap", func(t *testing.T) {
		// Junk between two frames, skipped by the index: the sequential
		// walk trips over it, so the footer open must refuse it too — the
		// two index sources accept exactly the same files.
		mut := spliced([]byte{0xde, 0xad, 0xbe, 0xef, 0x00, 0x01})
		if _, _, err := scanBytes(mut); err == nil {
			t.Fatal("the scan accepted junk between frames")
		}
		rejectedEverywhere(t, mut)
	})

	t.Run("index-skips-frame", func(t *testing.T) {
		// A whole, CRC-valid epoch frame the index does not mention: bytes
		// the footer open would never checksum.
		payload := appendEpoch(nil, &record.EpochLog{Epoch: 9, Threads: []record.ThreadLog{{TID: 0}}})
		frame := append([]byte{frameEpoch}, binary.AppendUvarint(nil, uint64(len(payload)))...)
		frame = append(frame, payload...)
		frame = binary.LittleEndian.AppendUint32(frame, crc32ieee(payload))
		rejectedEverywhere(t, spliced(frame))
	})

	t.Run("offset-past-eof", func(t *testing.T) {
		mut := withMutatedIndex(func(ix *fileIndex) {
			ix.epochs[1].off = int64(len(valid)) + 100
		})
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.Path("liar"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := st.Entry("liar")
		if err != nil {
			t.Fatal(err)
		}
		if e.Err == nil {
			t.Fatalf("out-of-bounds index accepted: %+v", e)
		}
		if _, err := st.Load("liar"); err == nil {
			t.Fatal("Load served a trace whose index points past EOF")
		}
	})

	t.Run("implausible-plen", func(t *testing.T) {
		// A payload length near 2^63 must neither allocate nor overflow the
		// bounds arithmetic into a panic. decodeIndex rejects it, which
		// classifies the index as unparseable — the salvage path, like a
		// torn index frame.
		mut := withMutatedIndex(func(ix *fileIndex) {
			ix.epochs[0].plen = 1 << 62
		})
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.Path("huge"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := st.Load("huge") // must not panic
		if err != nil || len(got.Epochs) != 2 {
			t.Fatalf("Load after implausible index length: %v", err)
		}
		if e, err := st.Entry("huge"); err != nil || e.Err != nil || e.Indexed {
			t.Fatalf("entry = %+v (%v), want clean scan-served entry", e, err)
		}
	})

	t.Run("kind-mismatch", func(t *testing.T) {
		mut := withMutatedIndex(func(ix *fileIndex) {
			// File the second epoch's frame under the checkpoints: right
			// place, right length, right CRC — so the index still tiles the
			// data region and opens — wrong kind.
			ix.ckpts = []ckptRef{{frameRef: ix.epochs[1].frameRef, epoch: 1}}
			ix.epochs = ix.epochs[:1]
		})
		st, err := OpenStore(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(st.Path("liar"), mut, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err = st.Load("liar")
		if err == nil {
			t.Fatal("Load served a trace whose index mislabels frame kinds")
		}
		if !strings.Contains(err.Error(), "kind") {
			t.Fatalf("kind mismatch not surfaced as such: %v", err)
		}
	})
}

// TestImplausibleLengthDoesNotAllocate: the corrupted length must be caught
// by the remaining-size bound without a gigabyte allocation, whatever the
// source — a file, a byte slice, or the flight recorder's SectionReader
// over its ring, where the salvage open keeps the (empty) prefix.
func TestImplausibleLengthDoesNotAllocate(t *testing.T) {
	valid := corpusTrace(t)
	hdrEnd := headerFrameEnd(t, valid)
	mut := append([]byte(nil), valid[:hdrEnd]...)
	mut = append(mut, frameEpoch)
	mut = binary.AppendUvarint(mut, 512<<20) // 512 MiB claim, under the generic cap
	mut = append(mut, 0x00)

	path := filepath.Join(t.TempDir(), "big.irt")
	if err := os.WriteFile(path, mut, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFile(path); err == nil || !strings.Contains(err.Error(), "implausible") {
		t.Fatalf("half-gigabyte frame in a 100-byte file: %v, want the length-bound error", err)
	}
	if _, err := Decode(mut); err == nil {
		t.Fatal("half-gigabyte frame in a 100-byte buffer accepted")
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h, err := OpenPrefix(io.NewSectionReader(bytes.NewReader(mut), 0, int64(len(mut))), int64(len(mut)))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("salvage open of an intact header: %v", err)
	}
	if h.NumEpochs() != 0 || h.Complete() {
		t.Fatalf("salvaged %d epochs, complete=%v; want an empty prefix", h.NumEpochs(), h.Complete())
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew >= 1<<20 {
		t.Fatalf("salvage open allocated %d bytes on a 512 MiB length claim", grew)
	}
}

// TestTornFrameFromUnsizedStream: a stream that dies right after a frame's
// length varint is torn, not a clean prefix — the strict open refuses it
// and never reports a clean end — while the same bytes cut at the frame
// boundary are a clean, empty prefix. The salvage open keeps the prefix
// either way. (The name predates the one reader: every source is sized
// now, which is what makes the remaining-bytes bound unconditional.)
func TestTornFrameFromUnsizedStream(t *testing.T) {
	valid := corpusTrace(t)
	hdrEnd := headerFrameEnd(t, valid)
	torn := append([]byte(nil), valid[:hdrEnd]...)
	torn = append(torn, frameEpoch)
	torn = binary.AppendUvarint(torn, 5) // promises 5 payload bytes, delivers none

	if _, err := OpenBytes(torn); err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("torn frame read as a clean end: %v", err)
	}
	h, err := OpenBytes(valid[:hdrEnd])
	if err != nil {
		t.Fatalf("clean prefix misread: %v", err)
	}
	if h.Complete() || h.NumEpochs() != 0 {
		t.Fatalf("clean prefix: complete=%v, %d epochs", h.Complete(), h.NumEpochs())
	}
	if tr, err := h.Trace(); err != nil || len(tr.Epochs) != 0 || tr.Summary != nil {
		t.Fatalf("clean prefix decodes to %+v (%v)", tr, err)
	}
	for name, b := range map[string][]byte{"torn": torn, "clean": valid[:hdrEnd]} {
		h, err := OpenPrefix(bytes.NewReader(b), int64(len(b)))
		if err != nil || h.NumEpochs() != 0 || h.Complete() {
			t.Fatalf("salvage open of the %s prefix: %v", name, err)
		}
	}
}

// TestStoreLoadDetectsSameSizeRewrite: a rewrite that preserves file size
// (and possibly lands within mtime granularity) must not be served from the
// decode cache — the content mark must differ even though, on an indexed
// file, the final bytes (the trailer) are content-independent.
func TestStoreLoadDetectsSameSizeRewrite(t *testing.T) {
	st, err := OpenStore(filepath.Join(t.TempDir(), "traces"))
	if err != nil {
		t.Fatal(err)
	}
	mk := func(exit uint64) *Trace {
		return &Trace{
			Header: Header{App: "rw", ModuleHash: 7},
			Epochs: []*record.EpochLog{{
				Epoch: 1,
				Threads: []record.ThreadLog{{TID: 0, Events: []record.Event{
					{Kind: record.KExit, Ret: exit, Pos: -1},
				}}},
			}},
			Summary: &Summary{Exit: exit},
		}
	}
	b1, err := Encode(mk(1))
	if err != nil {
		t.Fatal(err)
	}
	b2, err := Encode(mk(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(b1) != len(b2) {
		t.Fatalf("rewrite does not preserve size (%d vs %d); fix the fixture", len(b1), len(b2))
	}

	if err := os.WriteFile(st.Path("rw"), b1, 0o644); err != nil {
		t.Fatal(err)
	}
	fi1, err := os.Stat(st.Path("rw"))
	if err != nil {
		t.Fatal(err)
	}
	got, err := st.Load("rw")
	if err != nil {
		t.Fatal(err)
	}
	if got.Summary.Exit != 1 || got.Epochs[0].Threads[0].Events[0].Ret != 1 {
		t.Fatalf("first load exit = %d", got.Summary.Exit)
	}

	// Same-size rewrite; force the stat to look unchanged by restoring the
	// original mtime (the pathological window the content check closes).
	if err := os.WriteFile(st.Path("rw"), b2, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(st.Path("rw"), fi1.ModTime(), fi1.ModTime()); err != nil {
		t.Fatal(err)
	}
	got2, err := st.Load("rw")
	if err != nil {
		t.Fatal(err)
	}
	if got2.Summary.Exit != 2 {
		t.Fatalf("stale summary served after same-size rewrite (exit = %d, want 2)", got2.Summary.Exit)
	}
	if got2.Epochs[0].Threads[0].Events[0].Ret != 2 {
		t.Fatal("stale cached epoch frame served after same-size rewrite")
	}
}

// TestSegmentJobValidation: malformed segment schedules are refused before
// any replay work.
func TestSegmentJobValidation(t *testing.T) {
	valid := corpusTrace(t)
	tr, err := Decode(valid)
	if err != nil {
		t.Fatal(err)
	}
	// No module.
	if _, _, err := ReplaySegments(Job{Name: "x", Handle: OpenTrace(tr)}, 1); err == nil {
		t.Fatal("job without module accepted")
	}
}
