package trace

// Store lifecycle: retention GC, pinning, deletion, and compaction. The
// always-on deployment story needs the store bounded in both directions —
// a flight recorder keeps writing spills into it, so something must
// reclaim space — while traces that reproduced a finding must survive any
// policy. Pins live in a plain text file in the store directory (one
// trace name per line) so an operator can pin from a shell as easily as
// the daemon pins on a finding; GC never touches pinned or in-progress
// files. Compact rewrites one trace compressed and re-keyframed through a
// temp file renamed into place, so a crash mid-compact never leaves a torn
// file and readers of the old bytes are undisturbed.

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// pinsFile is the pin list's name inside the store directory: one trace
// name per line, blank lines and #-comments ignored.
const pinsFile = ".pins"

// pinMu serializes pin-file read-modify-write cycles across stores in the
// same process (the daemon and a CLI invocation are separate processes;
// the atomic rename keeps them from corrupting the file, last write wins).
var pinMu sync.Mutex

func (s *Store) pinsPath() string { return filepath.Join(s.dir, pinsFile) }

// readPins parses the pin file; a missing file is an empty set.
func (s *Store) readPins() (map[string]bool, error) {
	b, err := os.ReadFile(s.pinsPath())
	if err != nil {
		if os.IsNotExist(err) {
			return map[string]bool{}, nil
		}
		return nil, fmt.Errorf("trace: reading pins: %w", err)
	}
	pins := map[string]bool{}
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		pins[line] = true
	}
	return pins, nil
}

// writePins rewrites the pin file atomically (temp+rename), sorted for a
// stable diff-able file.
func (s *Store) writePins(pins map[string]bool) error {
	names := make([]string, 0, len(pins))
	for n := range pins {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		b.WriteString(n)
		b.WriteByte('\n')
	}
	tmp, err := os.CreateTemp(s.dir, pinsFile+".*.tmp")
	if err != nil {
		return fmt.Errorf("trace: writing pins: %w", err)
	}
	if _, err := tmp.WriteString(b.String()); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("trace: writing pins: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("trace: writing pins: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.pinsPath()); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("trace: writing pins: %w", err)
	}
	return nil
}

// Pins returns the pinned trace names.
func (s *Store) Pins() (map[string]bool, error) {
	pinMu.Lock()
	defer pinMu.Unlock()
	return s.readPins()
}

// Pin shields the named trace from GC until Unpin. Pinning a name with no
// stored trace is allowed (the recording may still be in progress).
func (s *Store) Pin(name string) error {
	if err := validateName(name); err != nil {
		return err
	}
	pinMu.Lock()
	defer pinMu.Unlock()
	pins, err := s.readPins()
	if err != nil {
		return err
	}
	if pins[name] {
		return nil
	}
	pins[name] = true
	return s.writePins(pins)
}

// Unpin removes a pin; unpinning an unpinned name is a no-op.
func (s *Store) Unpin(name string) error {
	if err := validateName(name); err != nil {
		return err
	}
	pinMu.Lock()
	defer pinMu.Unlock()
	pins, err := s.readPins()
	if err != nil {
		return err
	}
	if !pins[name] {
		return nil
	}
	delete(pins, name)
	return s.writePins(pins)
}

// Remove deletes the named trace and drops its cached frames and pin. A
// missing trace is an error (so callers can 404); in-progress ".partial"
// files are untouched — they are not stored traces yet.
func (s *Store) Remove(name string) error {
	if err := validateName(name); err != nil {
		return err
	}
	if err := os.Remove(s.Path(name)); err != nil {
		if os.IsNotExist(err) {
			return fmt.Errorf("trace: no trace %q in %s: %w", name, s.dir, err)
		}
		return fmt.Errorf("trace: removing %s: %w", name, err)
	}
	s.invalidate(name)
	return s.Unpin(name)
}

// DiskStats is the store's on-disk footprint: trace files only (pin file,
// partials, and foreign files are not counted as traces).
type DiskStats struct {
	Traces     int
	TotalBytes int64
}

// DiskStats sizes the store from directory metadata alone — no trace file
// is opened, so the daemon can report it on every metrics scrape.
func (s *Store) DiskStats() (DiskStats, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return DiskStats{}, err
	}
	var ds DiskStats
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), Ext) {
			continue
		}
		fi, err := de.Info()
		if err != nil {
			continue
		}
		ds.Traces++
		ds.TotalBytes += fi.Size()
	}
	return ds, nil
}

// GCPolicy bounds the store. Zero fields are unlimited; a zero policy
// makes GC a no-op that still reports the scan.
type GCPolicy struct {
	// MaxBytes caps the summed size of stored traces; the oldest unpinned
	// traces (by modification time) are removed until the rest fit.
	MaxBytes int64
	// MaxAge removes unpinned traces not modified within the window.
	MaxAge time.Duration
	// Keep, when non-nil, shields additional names from removal for this
	// pass — the daemon passes the traces its running jobs hold. Unlike a
	// pin it protects nothing across passes.
	Keep func(name string) bool
}

// GCStats reports one GC pass.
type GCStats struct {
	// Scanned counts the trace files considered; Pinned how many a pin
	// shielded from removal.
	Scanned int `json:"scanned"`
	Pinned  int `json:"pinned"`
	// Held counts traces the policy's Keep predicate shielded this pass.
	Held int `json:"held,omitempty"`
	// Removed/ReclaimedBytes describe what the pass deleted.
	Removed        int   `json:"removed"`
	ReclaimedBytes int64 `json:"reclaimed_bytes"`
	// RemainingBytes is the stored total after the pass.
	RemainingBytes int64 `json:"remaining_bytes"`
}

// GC enforces a retention policy over the store's trace files. Pinned
// traces are never removed, whatever the policy says; in-progress
// recordings (".partial") and non-trace files are never candidates. Age
// is enforced first, then the byte cap, removing oldest-first. Decisions
// come from directory metadata only — no trace is opened — so a GC pass
// over a large store costs one ReadDir.
func (s *Store) GC(pol GCPolicy) (GCStats, error) {
	defer obs.StoreGC.ObserveSince(time.Now())
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return GCStats{}, err
	}
	pins, err := s.Pins()
	if err != nil {
		return GCStats{}, err
	}
	type cand struct {
		name  string
		size  int64
		mtime time.Time
	}
	var cands []cand
	var stats GCStats
	var total int64
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), Ext) {
			continue
		}
		name := strings.TrimSuffix(de.Name(), Ext)
		fi, err := de.Info()
		if err != nil {
			continue // vanished mid-scan
		}
		stats.Scanned++
		total += fi.Size()
		if pins[name] {
			stats.Pinned++
			continue
		}
		if pol.Keep != nil && pol.Keep(name) {
			stats.Held++
			continue
		}
		cands = append(cands, cand{name: name, size: fi.Size(), mtime: fi.ModTime()})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].mtime.Before(cands[j].mtime) })

	remove := func(c cand) {
		if err := os.Remove(s.Path(c.name)); err != nil {
			return // lost a race with a concurrent remove; not reclaimed by us
		}
		s.invalidate(c.name)
		stats.Removed++
		stats.ReclaimedBytes += c.size
		total -= c.size
	}
	kept := cands[:0]
	if pol.MaxAge > 0 {
		cutoff := time.Now().Add(-pol.MaxAge)
		for _, c := range cands {
			if c.mtime.Before(cutoff) {
				remove(c)
			} else {
				kept = append(kept, c)
			}
		}
		cands = kept
	}
	if pol.MaxBytes > 0 {
		for _, c := range cands {
			if total <= pol.MaxBytes {
				break
			}
			remove(c)
		}
	}
	stats.RemainingBytes = total
	return stats, nil
}

// CompactStats reports one compaction.
type CompactStats struct {
	OldBytes, NewBytes int64
	Epochs             int
	Checkpoints        int
}

// Compact rewrites the named trace with per-frame compression and the
// checkpoint chain re-keyframed at DefaultKeyframeEvery; it is the only way
// a trace gets compressed. The rewrite is semantics-preserving: epochs and
// the folded checkpoint images are byte-identical to the original's, so
// replay output and analyzer findings are unchanged — only the encoding
// (deflated bodies, re-chained checkpoint deltas) differs. The new bytes
// land in a temp file and are renamed into place; cached frames of the old
// content are invalidated.
// An incomplete trace (no summary frame) compacts to a complete trace
// with a partial summary — indexed, but still carrying no replay oracle.
func (s *Store) Compact(name string) (CompactStats, error) {
	var stats CompactStats
	h, err := s.Open(name)
	if err != nil {
		return stats, err
	}
	defer h.Close()
	fi, err := os.Stat(s.Path(name))
	if err != nil {
		return stats, err
	}
	stats.OldBytes = fi.Size()
	hdr := h.Header()
	hdr.Compressed = true

	tmp, err := os.CreateTemp(s.dir, name+".*.tmp")
	if err != nil {
		return stats, fmt.Errorf("trace: compacting %s: %w", name, err)
	}
	fail := func(err error) (CompactStats, error) {
		tmp.Close()
		os.Remove(tmp.Name())
		return stats, fmt.Errorf("trace: compacting %s: %w", name, err)
	}
	w, err := NewWriter(tmp, hdr)
	if err != nil {
		return fail(err)
	}
	if err := Rewrite(w, h, -1); err != nil {
		return fail(err)
	}
	sum := h.Summary()
	if sum == nil {
		sum = &Summary{Partial: true}
	}
	if err := w.Finish(sum); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return stats, fmt.Errorf("trace: compacting %s: %w", name, err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return stats, fmt.Errorf("trace: compacting %s: %w", name, err)
	}
	nfi, err := os.Stat(tmp.Name())
	if err != nil {
		os.Remove(tmp.Name())
		return stats, fmt.Errorf("trace: compacting %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), s.Path(name)); err != nil {
		os.Remove(tmp.Name())
		return stats, fmt.Errorf("trace: compacting %s: %w", name, err)
	}
	s.invalidate(name)
	stats.NewBytes = nfi.Size()
	stats.Epochs = w.Epochs()
	stats.Checkpoints = w.Ckpts()
	return stats, nil
}
