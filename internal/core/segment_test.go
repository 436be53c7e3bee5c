package core

import (
	"bytes"
	"sync"
	"testing"

	"repro/internal/mem"
	"repro/internal/record"
)

// TestConcurrentSegmentsShareOneCheckpoint: two runtimes primed from the
// same *Checkpoint — whose memory snapshot is a table of pages both restore
// from, and which the end checkpoint shares most of its pages with — run
// concurrently to the same segment end, and both pass the stitching check
// (RunReplay fails the replay if verifySegmentEnd does). Neither may write
// through to the shared pages: the checkpoints encode to the same bytes
// afterwards as before.
func TestConcurrentSegmentsShareOneCheckpoint(t *testing.T) {
	spec := scaled(t, "streamcluster", 0.2)
	mod, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{EventCap: 24, Seed: 9, CheckpointEvery: 1}
	var (
		epochs []*record.EpochLog
		cks    []*Checkpoint
	)
	recOpts := opts
	recOpts.TraceSink = func(ep *record.EpochLog) error { epochs = append(epochs, ep); return nil }
	recOpts.CheckpointSink = func(ck *Checkpoint) error { cks = append(cks, ck); return nil }
	rt, err := New(mod, recOpts)
	if err != nil {
		t.Fatal(err)
	}
	spec.SetupOS(rt.OS())
	rep, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) < 3 {
		t.Fatalf("recording exported %d checkpoints, need an interior segment", len(cks))
	}
	if rep.Stats.CheckpointPages <= 0 || rep.Stats.CheckpointPages >= rep.Stats.Epochs*5376 {
		t.Fatalf("CheckpointPages = %d over %d epochs: not a count of dirty pages", rep.Stats.CheckpointPages, rep.Stats.Epochs)
	}

	start, end := cks[len(cks)/2-1], cks[len(cks)/2]
	var seg []*record.EpochLog
	for _, ep := range epochs {
		if ep.Epoch >= start.Epoch && ep.Epoch < end.Epoch {
			seg = append(seg, ep)
		}
	}
	encode := func(ck *Checkpoint) []byte {
		b, err := mem.AppendSnapshotDelta(nil, nil, ck.Snap)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	startBytes, endBytes := encode(start), encode(end)

	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		rt, err := PrepareReplayAt(mod, start, seg, end, opts)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if _, err := rt.RunReplay(); err != nil {
				t.Errorf("segment replay %d: %v", i, err)
			}
		}(i)
	}
	wg.Wait()
	if !bytes.Equal(encode(start), startBytes) || !bytes.Equal(encode(end), endBytes) {
		t.Fatal("a segment replay wrote through to a shared checkpoint's pages")
	}
}
