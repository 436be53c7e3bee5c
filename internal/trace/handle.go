package trace

// Handle is the one reader: the random-access view of one trace, and the
// only way bytes become one. Opened cheaply (one footer read for a
// finished file, one CRC-checked scan otherwise), it decodes epoch ranges
// and checkpoints on demand instead of materializing the whole recording.
// Every consumer of stored traces — whole-program replay, segment-parallel
// replay, batch analysis, the service daemon — works through a Handle, so
// the memory a trace costs is proportional to the slices actually in
// flight, not to the recording's size.

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/mem"
	"repro/internal/obs"
	"repro/internal/record"
)

// Handle is an open trace. Handles are immutable after open and safe for
// concurrent use: parallel segment workers share one handle and fetch
// their own slices. File-backed handles hold an open descriptor until
// Close; bytes- and trace-backed handles need no Close (it is a no-op).
type Handle struct {
	hdr Header
	idx *fileIndex
	sum *Summary

	// src serves indexed frame preads; nil for trace-backed handles.
	src io.ReaderAt
	// f is the owned descriptor of a file-backed handle (Close target).
	f *os.File

	// loaded short-circuits every fetch for a handle wrapped around an
	// already decoded in-memory trace (OpenTrace).
	loaded *Trace

	// st/name/mark bind a store-opened handle to the store's frame cache;
	// st is nil for standalone handles.
	st   *Store
	name string
	mark contentKey
}

// openSized opens path for reading and reports its size.
func openSized(path string) (*os.File, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	return f, fi.Size(), nil
}

// OpenFile opens the trace at path as an uncached, file-backed handle.
func OpenFile(path string) (*Handle, error) {
	f, size, err := openSized(path)
	if err != nil {
		return nil, err
	}
	h, err := open(f, size, false)
	if err != nil {
		f.Close()
		return nil, err
	}
	h.f = f
	return h, nil
}

// OpenBytes opens an encoded trace held in memory as a handle; decoding
// stays lazy exactly as for a file.
func OpenBytes(b []byte) (*Handle, error) {
	return open(bytes.NewReader(b), int64(len(b)), false)
}

// OpenPrefix opens the longest clean prefix of the size-byte trace stream
// behind src: whole, CRC-valid frames up to the first torn or corrupt one,
// which is treated as the stream's end rather than an error. This is the
// crash-salvage open — a recorder killed by SIGKILL can leave a final
// partially written frame, and the epochs before it are still a valid
// recording. Only the magic and header must be intact. The handle does not
// own src.
func OpenPrefix(src io.ReaderAt, size int64) (*Handle, error) {
	return open(src, size, true)
}

// open indexes the size-byte trace behind src (openIndex) and wraps it.
func open(src io.ReaderAt, size int64, salvage bool) (*Handle, error) {
	start := time.Now()
	hdr, idx, err := openIndex(src, size, salvage)
	if err != nil {
		return nil, err
	}
	h := &Handle{hdr: hdr, idx: idx, src: src}
	if err := h.loadSummary(); err != nil {
		return nil, err
	}
	obs.TraceHandleOpen.ObserveSince(start)
	return h, nil
}

// OpenTrace wraps an already decoded in-memory trace in a Handle — the
// adapter for callers that recorded straight into memory. No encoding or
// copying happens; fetches return the trace's own epochs and checkpoints.
func OpenTrace(tr *Trace) *Handle {
	ix := &fileIndex{complete: tr.Summary != nil}
	ix.epochs = make([]epochRef, len(tr.Epochs))
	for i, ep := range tr.Epochs {
		ix.epochs[i] = epochRef{seq: ep.Epoch, events: int64(ep.EventCount())}
	}
	ix.ckpts = make([]ckptRef, len(tr.Checkpoints))
	for i, ck := range tr.Checkpoints {
		ix.ckpts[i] = ckptRef{epoch: ck.Epoch(), keyframe: ck.Keyframe}
	}
	return &Handle{hdr: tr.Header, idx: ix, sum: tr.Summary, loaded: tr}
}

// loadSummary eagerly decodes the (small) summary frame of a complete
// trace so Summary never needs an error path at use sites.
func (h *Handle) loadSummary() error {
	if !h.idx.complete {
		return nil
	}
	payload, err := readFrameAt(h.src, h.idx.sum, frameSum)
	if err != nil {
		return err
	}
	h.sum, err = decodeSummary(payload)
	return err
}

// Close releases a file-backed handle's descriptor. It is a no-op for
// bytes- and trace-backed handles, and idempotent.
func (h *Handle) Close() error {
	if h.f == nil {
		return nil
	}
	f := h.f
	h.f = nil
	return f.Close()
}

// Header returns the trace header.
func (h *Handle) Header() Header { return h.hdr }

// Summary returns the recorded outcome, or nil for an incomplete trace.
func (h *Handle) Summary() *Summary { return h.sum }

// Complete reports whether the trace ends with its summary frame.
func (h *Handle) Complete() bool { return h.idx.complete }

// Indexed reports whether the handle was opened from the index footer
// (false: built by scanning — unfinished recordings, damaged index
// regions, salvaged prefixes — or wrapped around an in-memory trace).
func (h *Handle) Indexed() bool { return h.idx.footer }

// NumEpochs returns the trace's epoch frame count.
func (h *Handle) NumEpochs() int { return len(h.idx.epochs) }

// NumCheckpoints returns the trace's checkpoint frame count (trailing
// checkpoints that pin no epoch are dropped at open).
func (h *Handle) NumCheckpoints() int { return len(h.idx.ckpts) }

// Keyframes returns how many checkpoints are keyframes.
func (h *Handle) Keyframes() int { return h.idx.keyframes() }

// LeadingCheckpoint reports whether the trace begins with a checkpoint at
// its first epoch frame — a suffix trace (a flight-recorder spill) that
// replays from the checkpoint instead of program start.
func (h *Handle) LeadingCheckpoint() bool {
	return len(h.idx.ckpts) > 0 && len(h.idx.epochs) > 0 &&
		h.idx.ckpts[0].epoch == h.idx.epochs[0].seq
}

// EventCount sums the recorded events across all epochs, from the index —
// no decode.
func (h *Handle) EventCount() int64 { return h.idx.events() }

// EpochRange returns the first and last recorded epoch sequence numbers
// (0, 0 for an empty trace).
func (h *Handle) EpochRange() (lo, hi int64) {
	if n := len(h.idx.epochs); n > 0 {
		return h.idx.epochs[0].seq, h.idx.epochs[n-1].seq
	}
	return 0, 0
}

// CheckpointEpochs returns the 1-based epoch each checkpoint begins, in
// file order.
func (h *Handle) CheckpointEpochs() []int64 {
	out := make([]int64, len(h.idx.ckpts))
	for i := range h.idx.ckpts {
		out[i] = h.idx.ckpts[i].epoch
	}
	return out
}

// epochAt decodes (or fetches from the store cache) the i-th epoch frame.
func (h *Handle) epochAt(i int) (*record.EpochLog, error) {
	if h.loaded != nil {
		return h.loaded.Epochs[i], nil
	}
	if h.st != nil {
		if ep, ok := h.st.cachedEpoch(h.name, h.mark, i); ok {
			return ep, nil
		}
	}
	fetchStart := time.Now()
	payload, err := readFrameAt(h.src, h.idx.epochs[i].frameRef, frameEpoch)
	if err != nil {
		return nil, err
	}
	ep, err := decodeEpoch(payload)
	if err != nil {
		return nil, err
	}
	if ep.Epoch != h.idx.epochs[i].seq {
		return nil, fmt.Errorf("trace: epoch frame %d holds sequence %d, index says %d",
			i, ep.Epoch, h.idx.epochs[i].seq)
	}
	if got := int64(ep.EventCount()); got != h.idx.epochs[i].events {
		// The index feeds EventCount/Entry/stats without decoding; an index
		// that lies about events is hard corruption like any other lie.
		return nil, fmt.Errorf("trace: epoch frame %d holds %d events, index says %d",
			i, got, h.idx.epochs[i].events)
	}
	obs.TraceFrameFetch.With("epoch").ObserveSince(fetchStart)
	if h.st != nil {
		h.st.insertEpoch(h.name, h.mark, i, ep)
	}
	return ep, nil
}

// ckptAt decodes (or fetches from the store cache) the k-th checkpoint
// frame in delta form.
func (h *Handle) ckptAt(k int) (*Checkpoint, error) {
	if h.loaded != nil {
		return h.loaded.Checkpoints[k], nil
	}
	if h.st != nil {
		if ck, ok := h.st.cachedCkpt(h.name, h.mark, k); ok {
			return ck, nil
		}
	}
	fetchStart := time.Now()
	payload, err := readFrameAt(h.src, h.idx.ckpts[k].frameRef, frameCkpt)
	if err != nil {
		return nil, err
	}
	ck, err := decodeCheckpoint(payload)
	if err != nil {
		return nil, err
	}
	if ck.Epoch() != h.idx.ckpts[k].epoch {
		return nil, fmt.Errorf("trace: checkpoint frame %d begins epoch %d, index says %d",
			k, ck.Epoch(), h.idx.ckpts[k].epoch)
	}
	obs.TraceFrameFetch.With("checkpoint").ObserveSince(fetchStart)
	if h.st != nil {
		h.st.insertCkpt(h.name, h.mark, k, ck)
	}
	return ck, nil
}

// Epochs decodes the epochs with sequence numbers in [lo, hi] (1-based,
// inclusive) — only those frames are read and decoded.
func (h *Handle) Epochs(lo, hi int64) ([]*record.EpochLog, error) {
	if lo > hi {
		return nil, fmt.Errorf("trace: empty epoch range [%d,%d]", lo, hi)
	}
	i := sort.Search(len(h.idx.epochs), func(i int) bool { return h.idx.epochs[i].seq >= lo })
	j := sort.Search(len(h.idx.epochs), func(i int) bool { return h.idx.epochs[i].seq > hi })
	if i == j || h.idx.epochs[i].seq != lo || h.idx.epochs[j-1].seq != hi {
		return nil, fmt.Errorf("trace: epoch range [%d,%d] not covered by the trace", lo, hi)
	}
	out := make([]*record.EpochLog, 0, j-i)
	for ; i < j; i++ {
		ep, err := h.epochAt(i)
		if err != nil {
			return nil, err
		}
		out = append(out, ep)
	}
	return out, nil
}

// CheckpointAt returns the k-th checkpoint (0-based, file order) with its
// memory image materialized, folding the delta chain from the nearest
// keyframe — at most the writer's keyframe interval of frames is decoded
// and applied, not the whole chain.
func (h *Handle) CheckpointAt(k int) (*core.Checkpoint, error) {
	if k < 0 || k >= len(h.idx.ckpts) {
		return nil, fmt.Errorf("trace: checkpoint %d out of range [0,%d)", k, len(h.idx.ckpts))
	}
	defer obs.TraceCkptFold.ObserveSince(time.Now())
	var st *core.Checkpoint
	var prev *mem.Snapshot
	for j := h.idx.foldBase(k); j <= k; j++ {
		ck, err := h.ckptAt(j)
		if err != nil {
			return nil, err
		}
		if st, err = ck.materialize(prev); err != nil {
			return nil, err
		}
		prev = st.Snap
	}
	return st, nil
}

// Trace fully decodes the handle into a Trace — the whole-recording path
// (Store.Load) and the adapter for consumers that still want everything in
// memory. For trace-backed handles it returns the wrapped trace itself.
func (h *Handle) Trace() (*Trace, error) {
	if h.loaded != nil {
		return h.loaded, nil
	}
	tr := &Trace{Header: h.hdr, Summary: h.sum}
	for i := range h.idx.epochs {
		ep, err := h.epochAt(i)
		if err != nil {
			return nil, err
		}
		tr.Epochs = append(tr.Epochs, ep)
	}
	for k := range h.idx.ckpts {
		ck, err := h.ckptAt(k)
		if err != nil {
			return nil, err
		}
		tr.Checkpoints = append(tr.Checkpoints, ck)
	}
	return tr, nil
}
