package trace

// Low-level codec: varints, zigzag deltas, and the per-frame payload
// layouts. Every multi-byte integer is an unsigned LEB128 varint; signed
// quantities and deltas are zigzag-mapped first. Delta bases reset at the
// start of every thread list and every variable list, so frames decode
// independently.

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/heap"
	"repro/internal/interp"
	"repro/internal/record"
	"repro/internal/vsys"
)

func zigzag(v int64) uint64   { return uint64((v << 1) ^ (v >> 63)) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

func putUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func putVarint(b []byte, v int64) []byte {
	return binary.AppendUvarint(b, zigzag(v))
}

func putString(b []byte, s string) []byte {
	b = putUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder walks one frame payload.
type decoder struct {
	b   []byte
	off int
}

func (d *decoder) uvarint() (uint64, error) {
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		return 0, fmt.Errorf("trace: truncated varint at offset %d", d.off)
	}
	d.off += n
	return v, nil
}

func (d *decoder) varint() (int64, error) {
	u, err := d.uvarint()
	return unzigzag(u), err
}

func (d *decoder) bytes(n uint64) ([]byte, error) {
	if n > uint64(len(d.b)-d.off) {
		return nil, fmt.Errorf("trace: truncated byte run (%d wanted, %d left)", n, len(d.b)-d.off)
	}
	out := d.b[d.off : d.off+int(n)]
	d.off += int(n)
	return out, nil
}

func (d *decoder) str() (string, error) {
	n, err := d.uvarint()
	if err != nil {
		return "", err
	}
	b, err := d.bytes(n)
	return string(b), err
}

func (d *decoder) done() bool { return d.off >= len(d.b) }

// count validates an element count against the bytes remaining: every
// encoded element occupies at least one byte, so a larger count marks a
// corrupt frame and must not drive an allocation.
func (d *decoder) count() (int, error) {
	n, err := d.uvarint()
	if err != nil {
		return 0, err
	}
	if n > uint64(len(d.b)-d.off) {
		return 0, fmt.Errorf("trace: implausible element count %d with %d bytes left", n, len(d.b)-d.off)
	}
	return int(n), nil
}

// --- header frame ---

// Header flag bits (a flags varint closes the header payload).
const hdrCompressed = 1 << 0

func appendHeader(b []byte, h Header) []byte {
	b = putUvarint(b, Version)
	b = putString(b, h.App)
	b = putUvarint(b, h.ModuleHash)
	b = putUvarint(b, uint64(h.EventCap))
	b = putUvarint(b, uint64(h.VarCap))
	b = putVarint(b, h.Seed)
	b = putUvarint(b, uint64(h.AppIters))
	var flags uint64
	if h.Compressed {
		flags |= hdrCompressed
	}
	return putUvarint(b, flags)
}

func decodeHeader(payload []byte) (Header, error) {
	d := &decoder{b: payload}
	var h Header
	ver, err := d.uvarint()
	if err != nil {
		return h, err
	}
	if ver != Version {
		return h, fmt.Errorf("trace: unsupported header version %d (this build reads and writes version %d only)", ver, Version)
	}
	h.Version = int(ver)
	if h.App, err = d.str(); err != nil {
		return h, err
	}
	if h.ModuleHash, err = d.uvarint(); err != nil {
		return h, err
	}
	ec, err := d.uvarint()
	if err != nil {
		return h, err
	}
	vc, err := d.uvarint()
	if err != nil {
		return h, err
	}
	h.EventCap, h.VarCap = int(ec), int(vc)
	if h.Seed, err = d.varint(); err != nil {
		return h, err
	}
	iters, err := d.uvarint()
	if err != nil {
		return h, err
	}
	h.AppIters = int(iters)
	flags, err := d.uvarint()
	if err != nil {
		return h, err
	}
	h.Compressed = flags&hdrCompressed != 0
	return h, nil
}

// --- epoch frame ---

func appendEpoch(b []byte, ep *record.EpochLog) []byte {
	b = putUvarint(b, uint64(ep.Epoch))
	b = putUvarint(b, uint64(uint32(ep.Reason)))
	// Total event count, up front: lets inventory scans (Store.List) report
	// per-trace statistics without decoding the thread lists.
	b = putUvarint(b, uint64(ep.EventCount()))
	b = putUvarint(b, uint64(len(ep.Threads)))
	for i := range ep.Threads {
		tl := &ep.Threads[i]
		b = putUvarint(b, uint64(uint32(tl.TID)))
		b = putUvarint(b, uint64(uint32(tl.EntryFn)))
		b = putUvarint(b, uint64(len(tl.Events)))
		var prevVar, prevAux, prevRet, prevPos int64
		for j := range tl.Events {
			ev := &tl.Events[j]
			b = putUvarint(b, uint64(ev.Kind))
			b = putVarint(b, int64(ev.Var)-prevVar)
			b = putVarint(b, ev.Aux-prevAux)
			b = putVarint(b, int64(ev.Ret)-prevRet)
			b = putVarint(b, int64(ev.Pos)-prevPos)
			b = putUvarint(b, uint64(ev.Class))
			b = putUvarint(b, uint64(len(ev.Data)))
			b = append(b, ev.Data...)
			prevVar, prevAux = int64(ev.Var), ev.Aux
			prevRet, prevPos = int64(ev.Ret), int64(ev.Pos)
		}
	}
	b = putUvarint(b, uint64(len(ep.Vars)))
	var prevAddr int64
	for i := range ep.Vars {
		vl := &ep.Vars[i]
		b = putVarint(b, int64(vl.Addr)-prevAddr)
		prevAddr = int64(vl.Addr)
		b = putUvarint(b, uint64(len(vl.Order)))
		var prevTid int64
		for _, tid := range vl.Order {
			b = putVarint(b, int64(tid)-prevTid)
			prevTid = int64(tid)
		}
	}
	return b
}

func decodeEpoch(payload []byte) (*record.EpochLog, error) {
	decodeProbe.epochs.Add(1)
	d := &decoder{b: payload}
	ep := &record.EpochLog{}
	seq, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	ep.Epoch = int64(seq)
	reason, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	ep.Reason = int32(reason)
	wantEvents, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	nThreads, err := d.count()
	if err != nil {
		return nil, err
	}
	ep.Threads = make([]record.ThreadLog, nThreads)
	for i := 0; i < nThreads; i++ {
		tl := &ep.Threads[i]
		tid, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		entry, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		tl.TID, tl.EntryFn = int32(tid), int32(entry)
		nEvents, err := d.count()
		if err != nil {
			return nil, err
		}
		tl.Events = make([]record.Event, nEvents)
		var prevVar, prevAux, prevRet, prevPos int64
		for j := 0; j < nEvents; j++ {
			ev := &tl.Events[j]
			kind, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			ev.Kind = record.Kind(kind)
			dv, err := d.varint()
			if err != nil {
				return nil, err
			}
			da, err := d.varint()
			if err != nil {
				return nil, err
			}
			dr, err := d.varint()
			if err != nil {
				return nil, err
			}
			dp, err := d.varint()
			if err != nil {
				return nil, err
			}
			class, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			nData, err := d.uvarint()
			if err != nil {
				return nil, err
			}
			data, err := d.bytes(nData)
			if err != nil {
				return nil, err
			}
			prevVar += dv
			prevAux += da
			prevRet += dr
			prevPos += dp
			ev.Var = uint64(prevVar)
			ev.Aux = prevAux
			ev.Ret = uint64(prevRet)
			ev.Pos = int32(prevPos)
			ev.Class = uint8(class)
			if len(data) > 0 {
				ev.Data = append([]byte(nil), data...)
			}
		}
	}
	nVars, err := d.count()
	if err != nil {
		return nil, err
	}
	ep.Vars = make([]record.VarLog, nVars)
	var prevAddr int64
	for i := 0; i < nVars; i++ {
		vl := &ep.Vars[i]
		dAddr, err := d.varint()
		if err != nil {
			return nil, err
		}
		prevAddr += dAddr
		vl.Addr = uint64(prevAddr)
		nOrder, err := d.count()
		if err != nil {
			return nil, err
		}
		vl.Order = make([]int32, nOrder)
		var prevTid int64
		for j := 0; j < nOrder; j++ {
			dt, err := d.varint()
			if err != nil {
				return nil, err
			}
			prevTid += dt
			vl.Order[j] = int32(prevTid)
		}
	}
	if !d.done() {
		return nil, fmt.Errorf("trace: %d trailing bytes in epoch frame", len(d.b)-d.off)
	}
	if got := ep.EventCount(); uint64(got) != wantEvents {
		return nil, fmt.Errorf("trace: epoch frame declares %d events, holds %d", wantEvents, got)
	}
	return ep, nil
}

// peekEpochMeta reads only the epoch frame's leading fields (sequence,
// reason, event count) — the inventory scan's fast path.
func peekEpochMeta(payload []byte) (epoch int64, events int64, err error) {
	d := &decoder{b: payload}
	seq, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	if _, err := d.uvarint(); err != nil { // reason
		return 0, 0, err
	}
	n, err := d.uvarint()
	if err != nil {
		return 0, 0, err
	}
	return int64(seq), int64(n), nil
}

// --- checkpoint frame ---

// Thread flag bits in a checkpoint frame.
const (
	ckThreadExited = 1 << 0
	ckThreadJoined = 1 << 1
	ckThreadHasCtx = 1 << 2
)

// Checkpoint frame flag bits (the flags varint leads the payload).
const ckKeyframe = 1 << 0

// decodeProbe counts frame-payload decodes — the test probe behind the
// "reaching checkpoint k decodes at most K deltas" and "workers decode
// only their own slice" guarantees. Cheap enough to leave on.
var decodeProbe struct {
	epochs atomic.Int64
	ckpts  atomic.Int64
}

// appendCheckpoint serializes a checkpoint whose memory image has already
// been delta-encoded (memDelta) by the caller.
func appendCheckpoint(b []byte, ck *core.Checkpoint, memDelta []byte, keyframe bool) ([]byte, error) {
	var flags uint64
	if keyframe {
		flags |= ckKeyframe
	}
	b = putUvarint(b, flags)
	b = putUvarint(b, uint64(ck.Epoch))
	b = putUvarint(b, uint64(uint32(ck.NextTID)))
	b = putUvarint(b, uint64(ck.OutputLen))
	alloc, err := heap.AppendSnapshot(nil, ck.Alloc)
	if err != nil {
		return nil, err
	}
	b = putUvarint(b, uint64(len(alloc)))
	b = append(b, alloc...)
	b = putUvarint(b, uint64(len(memDelta)))
	b = append(b, memDelta...)
	fs := ck.FS
	if fs == nil {
		fs = &vsys.State{}
	}
	b = putUvarint(b, uint64(len(fs.Files)))
	for _, f := range fs.Files {
		b = putString(b, f.Name)
		b = putUvarint(b, uint64(len(f.Data)))
		b = append(b, f.Data...)
	}
	b = putUvarint(b, uint64(len(fs.FDs)))
	for _, fd := range fs.FDs {
		b = putUvarint(b, uint64(fd.FD))
		b = putString(b, fd.Path)
		b = putUvarint(b, uint64(fd.Pos))
	}
	b = putUvarint(b, uint64(len(ck.Threads)))
	for i := range ck.Threads {
		ts := &ck.Threads[i]
		b = putUvarint(b, uint64(uint32(ts.TID)))
		b = putUvarint(b, uint64(uint32(ts.EntryFn)))
		var tflags uint64
		if ts.Exited {
			tflags |= ckThreadExited
		}
		if ts.Joined {
			tflags |= ckThreadJoined
		}
		if ts.Ctx != nil {
			tflags |= ckThreadHasCtx
		}
		b = putUvarint(b, tflags)
		b = putUvarint(b, ts.ExitVal)
		b = putUvarint(b, uint64(uint32(ts.Block.Kind)))
		b = putUvarint(b, ts.Block.VAddr)
		b = putUvarint(b, ts.Block.MAddr)
		if ts.Ctx != nil {
			ctx := interp.AppendContext(nil, ts.Ctx)
			b = putUvarint(b, uint64(len(ctx)))
			b = append(b, ctx...)
		}
	}
	b = putUvarint(b, uint64(len(ck.Vars)))
	for i := range ck.Vars {
		vs := &ck.Vars[i]
		b = putUvarint(b, vs.Addr)
		var locked uint64
		if vs.Locked {
			locked = 1
		}
		b = putUvarint(b, locked)
		b = putVarint(b, int64(vs.Holder))
		b = putUvarint(b, uint64(vs.Waiters))
		b = putUvarint(b, uint64(vs.Fuel))
		b = putUvarint(b, uint64(vs.Parties))
		b = putUvarint(b, uint64(vs.Arrived))
		b = putUvarint(b, uint64(vs.Gen))
	}
	return b, nil
}

// decodeCheckpoint decodes one checkpoint frame.
func decodeCheckpoint(payload []byte) (*Checkpoint, error) {
	decodeProbe.ckpts.Add(1)
	d := &decoder{b: payload}
	st := &core.Checkpoint{FS: &vsys.State{}}
	flags, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	epoch, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	st.Epoch = int64(epoch)
	ntid, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	st.NextTID = int32(uint32(ntid))
	outLen, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	st.OutputLen = int(outLen)
	n, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	allocB, err := d.bytes(n)
	if err != nil {
		return nil, err
	}
	if st.Alloc, err = heap.DecodeSnapshot(allocB); err != nil {
		return nil, err
	}
	if n, err = d.uvarint(); err != nil {
		return nil, err
	}
	memDelta, err := d.bytes(n)
	if err != nil {
		return nil, err
	}
	nFiles, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nFiles; i++ {
		name, err := d.str()
		if err != nil {
			return nil, err
		}
		if n, err = d.uvarint(); err != nil {
			return nil, err
		}
		data, err := d.bytes(n)
		if err != nil {
			return nil, err
		}
		st.FS.Files = append(st.FS.Files, vsys.File{Name: name, Data: append([]byte(nil), data...)})
	}
	nFDs, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nFDs; i++ {
		var fd vsys.FDState
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		fd.FD = int64(v)
		if fd.Path, err = d.str(); err != nil {
			return nil, err
		}
		if v, err = d.uvarint(); err != nil {
			return nil, err
		}
		fd.Pos = int64(v)
		st.FS.FDs = append(st.FS.FDs, fd)
	}
	nThreads, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nThreads; i++ {
		var ts core.ThreadState
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		ts.TID = int32(uint32(v))
		if v, err = d.uvarint(); err != nil {
			return nil, err
		}
		ts.EntryFn = int32(uint32(v))
		tflags, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		ts.Exited = tflags&ckThreadExited != 0
		ts.Joined = tflags&ckThreadJoined != 0
		if ts.ExitVal, err = d.uvarint(); err != nil {
			return nil, err
		}
		if v, err = d.uvarint(); err != nil {
			return nil, err
		}
		ts.Block.Kind = int32(uint32(v))
		if ts.Block.VAddr, err = d.uvarint(); err != nil {
			return nil, err
		}
		if ts.Block.MAddr, err = d.uvarint(); err != nil {
			return nil, err
		}
		if tflags&ckThreadHasCtx != 0 {
			if v, err = d.uvarint(); err != nil {
				return nil, err
			}
			ctxB, err := d.bytes(v)
			if err != nil {
				return nil, err
			}
			ctx, rest, err := interp.DecodeContext(ctxB)
			if err != nil {
				return nil, err
			}
			if len(rest) != 0 {
				return nil, fmt.Errorf("trace: %d trailing bytes in thread %d context", len(rest), ts.TID)
			}
			ts.Ctx = ctx
		}
		st.Threads = append(st.Threads, ts)
	}
	nVars, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nVars; i++ {
		var vs core.VarState
		if vs.Addr, err = d.uvarint(); err != nil {
			return nil, err
		}
		locked, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		vs.Locked = locked != 0
		h, err := d.varint()
		if err != nil {
			return nil, err
		}
		vs.Holder = int32(h)
		v, err := d.uvarint()
		if err != nil {
			return nil, err
		}
		vs.Waiters = int(v)
		if v, err = d.uvarint(); err != nil {
			return nil, err
		}
		vs.Fuel = int(v)
		if v, err = d.uvarint(); err != nil {
			return nil, err
		}
		vs.Parties = int64(v)
		if v, err = d.uvarint(); err != nil {
			return nil, err
		}
		vs.Arrived = int64(v)
		if v, err = d.uvarint(); err != nil {
			return nil, err
		}
		vs.Gen = int64(v)
		st.Vars = append(st.Vars, vs)
	}
	if !d.done() {
		return nil, fmt.Errorf("trace: %d trailing bytes in checkpoint frame", len(d.b)-d.off)
	}
	return &Checkpoint{State: st, Keyframe: flags&ckKeyframe != 0, memDelta: append([]byte(nil), memDelta...)}, nil
}

// peekCheckpointMeta reads only the leading flags and epoch fields — the
// inventory scan's fast path.
func peekCheckpointMeta(payload []byte) (epoch int64, keyframe bool, err error) {
	d := &decoder{b: payload}
	flags, err := d.uvarint()
	if err != nil {
		return 0, false, err
	}
	v, err := d.uvarint()
	return int64(v), flags&ckKeyframe != 0, err
}

// --- summary frame ---

// Summary flag bits (a flags varint closes the summary payload).
const sumPartial = 1 << 0

func appendSummary(b []byte, s *Summary) []byte {
	if s == nil {
		s = &Summary{}
	}
	b = putUvarint(b, s.Exit)
	b = putString(b, s.Output)
	var flags uint64
	if s.Partial {
		flags |= sumPartial
	}
	return putUvarint(b, flags)
}

func decodeSummary(payload []byte) (*Summary, error) {
	d := &decoder{b: payload}
	s := &Summary{}
	var err error
	if s.Exit, err = d.uvarint(); err != nil {
		return nil, err
	}
	if s.Output, err = d.str(); err != nil {
		return nil, err
	}
	flags, err := d.uvarint()
	if err != nil {
		return nil, err
	}
	s.Partial = flags&sumPartial != 0
	return s, nil
}
