package heap

// Allocator snapshot serialization for persisted checkpoint frames of the
// trace format: the metadata an offline replay needs to resume allocating
// mid-trace with identical layout. Both allocators are covered; a tag byte
// distinguishes them so a replay configured with the wrong allocator fails
// loudly instead of corrupting layout.
//
// The encoding is canonical (maps are emitted in sorted order), so equal
// snapshots produce identical bytes.

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// Snapshot tags.
const (
	snapDet  byte = 1
	snapLibC byte = 2
)

// SnapshotIsDeterministic reports whether an encoded allocator snapshot was
// taken from the deterministic allocator (vs the libc baseline).
func SnapshotIsDeterministic(b []byte) bool {
	return len(b) > 0 && b[0] == snapDet
}

// SnapshotKindDeterministic reports whether a decoded allocator snapshot
// belongs to the deterministic allocator — a restore target must be built
// with the matching allocator.
func SnapshotKindDeterministic(s AllocSnapshot) bool {
	_, ok := s.(*detSnapshot)
	return ok
}

// AppendSnapshot serializes an allocator snapshot produced by
// (Allocator).Snapshot.
func AppendSnapshot(b []byte, snap AllocSnapshot) ([]byte, error) {
	switch s := snap.(type) {
	case *detSnapshot:
		return appendDetSnapshot(b, s), nil
	case *libcSnapshot:
		return appendLibCSnapshot(b, s), nil
	}
	return nil, fmt.Errorf("heap: unencodable allocator snapshot %T", snap)
}

// DecodeSnapshot inverts AppendSnapshot. The result can be passed to the
// matching allocator's Restore.
func DecodeSnapshot(b []byte) (AllocSnapshot, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("heap: empty allocator snapshot")
	}
	d := &snapDecoder{b: b[1:]}
	switch b[0] {
	case snapDet:
		return decodeDetSnapshot(d)
	case snapLibC:
		return decodeLibCSnapshot(d)
	}
	return nil, fmt.Errorf("heap: unknown allocator snapshot tag %d", b[0])
}

type snapDecoder struct{ b []byte }

func (d *snapDecoder) u() (uint64, error) {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		return 0, fmt.Errorf("heap: truncated allocator snapshot")
	}
	d.b = d.b[n:]
	return v, nil
}

// count bounds an element count by the bytes remaining (each element costs
// at least one byte), so a corrupt count cannot drive an allocation.
func (d *snapDecoder) count() (int, error) {
	v, err := d.u()
	if err != nil {
		return 0, err
	}
	if v > uint64(len(d.b)) {
		return 0, fmt.Errorf("heap: implausible element count %d in allocator snapshot", v)
	}
	return int(v), nil
}

func appendObject(b []byte, o Object) []byte {
	b = binary.AppendUvarint(b, o.Addr)
	b = binary.AppendUvarint(b, uint64(o.Size))
	b = binary.AppendUvarint(b, uint64(uint32(int32(o.Class))))
	b = binary.AppendUvarint(b, uint64(o.Slot))
	b = binary.AppendUvarint(b, uint64(uint32(o.Tid)))
	return b
}

func (d *snapDecoder) object() (Object, error) {
	var o Object
	var err error
	var v uint64
	if o.Addr, err = d.u(); err != nil {
		return o, err
	}
	if v, err = d.u(); err != nil {
		return o, err
	}
	o.Size = int64(v)
	if v, err = d.u(); err != nil {
		return o, err
	}
	o.Class = int(int32(uint32(v)))
	if v, err = d.u(); err != nil {
		return o, err
	}
	o.Slot = int64(v)
	if v, err = d.u(); err != nil {
		return o, err
	}
	o.Tid = int32(uint32(v))
	return o, nil
}

func appendLive(b []byte, live map[uint64]Object) []byte {
	addrs := make([]uint64, 0, len(live))
	for a := range live {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	b = binary.AppendUvarint(b, uint64(len(addrs)))
	for _, a := range addrs {
		b = appendObject(b, live[a])
	}
	return b
}

func (d *snapDecoder) liveMap() (map[uint64]Object, error) {
	n, err := d.count()
	if err != nil {
		return nil, err
	}
	live := make(map[uint64]Object, n)
	for i := 0; i < n; i++ {
		o, err := d.object()
		if err != nil {
			return nil, err
		}
		live[o.Addr] = o
	}
	return live, nil
}

func appendFreeLists(b []byte, free *[NumClasses][]uint64) []byte {
	for c := range free {
		b = binary.AppendUvarint(b, uint64(len(free[c])))
		for _, a := range free[c] {
			b = binary.AppendUvarint(b, a)
		}
	}
	return b
}

func (d *snapDecoder) freeLists(free *[NumClasses][]uint64) error {
	for c := range free {
		n, err := d.count()
		if err != nil {
			return err
		}
		if n > 0 {
			free[c] = make([]uint64, n)
			for i := range free[c] {
				if free[c][i], err = d.u(); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

func appendDetSnapshot(b []byte, s *detSnapshot) []byte {
	b = append(b, snapDet)
	b = binary.AppendUvarint(b, uint64(s.superNext))
	b = binary.AppendUvarint(b, uint64(len(s.heaps)))
	for _, th := range s.heaps {
		if th == nil {
			b = append(b, 0)
			continue
		}
		b = append(b, 1)
		for c := range th.bump {
			b = binary.AppendUvarint(b, th.bump[c].addr)
			b = binary.AppendUvarint(b, uint64(th.bump[c].left))
		}
		b = appendFreeLists(b, &th.free)
		b = binary.AppendUvarint(b, uint64(th.nAlloc))
		b = binary.AppendUvarint(b, uint64(th.nFree))
	}
	b = appendLive(b, s.live)
	// Quarantine lists, sorted by owning thread.
	tids := make([]int32, 0, len(s.quarantined))
	for t := range s.quarantined {
		tids = append(tids, t)
	}
	sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
	b = binary.AppendUvarint(b, uint64(len(tids)))
	for _, t := range tids {
		q := s.quarantined[t]
		b = binary.AppendUvarint(b, uint64(uint32(t)))
		b = binary.AppendUvarint(b, uint64(q.total))
		b = binary.AppendUvarint(b, uint64(len(q.objs)))
		for _, o := range q.objs {
			b = appendObject(b, o)
		}
	}
	return b
}

func decodeDetSnapshot(d *snapDecoder) (*detSnapshot, error) {
	s := &detSnapshot{quarantined: make(map[int32]*quarList)}
	v, err := d.u()
	if err != nil {
		return nil, err
	}
	s.superNext = int64(v)
	nh, err := d.count()
	if err != nil {
		return nil, err
	}
	s.heaps = make([]*threadHeap, nh)
	for i := 0; i < nh; i++ {
		if len(d.b) == 0 {
			return nil, fmt.Errorf("heap: truncated allocator snapshot")
		}
		present := d.b[0]
		d.b = d.b[1:]
		if present == 0 {
			continue
		}
		th := &threadHeap{}
		for c := range th.bump {
			if th.bump[c].addr, err = d.u(); err != nil {
				return nil, err
			}
			if v, err = d.u(); err != nil {
				return nil, err
			}
			th.bump[c].left = int64(v)
		}
		if err := d.freeLists(&th.free); err != nil {
			return nil, err
		}
		if v, err = d.u(); err != nil {
			return nil, err
		}
		th.nAlloc = int64(v)
		if v, err = d.u(); err != nil {
			return nil, err
		}
		th.nFree = int64(v)
		s.heaps[i] = th
	}
	if s.live, err = d.liveMap(); err != nil {
		return nil, err
	}
	nq, err := d.count()
	if err != nil {
		return nil, err
	}
	for i := 0; i < nq; i++ {
		tv, err := d.u()
		if err != nil {
			return nil, err
		}
		q := &quarList{}
		if v, err = d.u(); err != nil {
			return nil, err
		}
		q.total = int64(v)
		no, err := d.count()
		if err != nil {
			return nil, err
		}
		for j := 0; j < no; j++ {
			o, err := d.object()
			if err != nil {
				return nil, err
			}
			q.objs = append(q.objs, o)
		}
		s.quarantined[int32(uint32(tv))] = q
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("heap: %d trailing bytes in allocator snapshot", len(d.b))
	}
	return s, nil
}

func appendLibCSnapshot(b []byte, s *libcSnapshot) []byte {
	b = append(b, snapLibC)
	b = binary.AppendUvarint(b, uint64(s.next))
	b = appendFreeLists(b, &s.free)
	b = appendLive(b, s.live)
	return b
}

func decodeLibCSnapshot(d *snapDecoder) (*libcSnapshot, error) {
	s := &libcSnapshot{}
	v, err := d.u()
	if err != nil {
		return nil, err
	}
	s.next = int64(v)
	if err := d.freeLists(&s.free); err != nil {
		return nil, err
	}
	if s.live, err = d.liveMap(); err != nil {
		return nil, err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("heap: %d trailing bytes in allocator snapshot", len(d.b))
	}
	return s, nil
}
