package trace

import (
	"container/list"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/record"
)

// Store manages a directory of trace files and a bounded decode cache.
// Traces are addressed by name (one file per trace, "<name>.irt") and
// indexed by the module fingerprint in their headers, so callers can
// enumerate every recording of a given program.
//
// Access is handle-based: Open returns a Handle whose epoch ranges and
// checkpoints decode lazily, and Load (the whole-recording convenience)
// goes through the same path. The cache works at frame granularity — its
// unit is one decoded epoch or checkpoint frame, costed at its decoded
// size — so what the store pins in memory is proportional to the segments
// consumers actually touch, never to the size of the files they came
// from. Entries are keyed by a content fingerprint as well as the trace
// name, so a rewritten file can never serve another file's frames.
//
// The cache is an LRU sized in bytes (DefaultCacheBytes unless
// SetCacheLimit changes it). Eviction happens on insert, when a fresh
// decode pushes the total over the limit; the entry being inserted is
// never the victim, so the frame being worked on always caches even when
// it alone exceeds the budget.
type Store struct {
	dir string

	mu sync.Mutex
	// cache maps frame key → element in lru; lru's front is most recent.
	cache map[frameKey]*list.Element // guarded by mu
	lru   *list.List                 // guarded by mu; of *cachedFrame
	// limit/used implement the byte budget; hits/misses/evictions feed
	// Stats (and the daemon's /metrics).
	limit     int64
	used      int64
	hits      uint64
	misses    uint64
	evictions uint64
}

// DefaultCacheBytes is the decode-cache budget OpenStore starts with:
// generous enough that a CLI batch over a laptop-sized corpus never evicts,
// small enough that a long-running daemon cannot grow without bound.
const DefaultCacheBytes = 256 << 20

// contentKey fingerprints a trace file's content cheaply: the header
// frame's stored CRC and the file's final bytes (the last frame's CRC or
// the index trailer lives there). A rewrite landing within the
// filesystem's mtime granularity still differs in one of them unless it is
// byte-identical in both ends — in which case the cached frames are the
// same trace for any content this store writes.
type contentKey struct {
	head uint32
	tail [8]byte
}

// frameKey addresses one cached decoded frame.
type frameKey struct {
	name string
	mark contentKey
	kind byte // frameEpoch or frameCkpt
	idx  int  // epoch position or checkpoint ordinal (file order)
}

type cachedFrame struct {
	key  frameKey
	val  any // *record.EpochLog or *Checkpoint
	cost int64
}

// StoreStats reports the decode cache's state and effectiveness.
type StoreStats struct {
	// CachedFrames/CachedBytes describe the current contents: decoded
	// epoch and checkpoint frames, costed at their decoded sizes.
	CachedFrames int   `json:"cached_frames"`
	CachedBytes  int64 `json:"cached_bytes"`
	// LimitBytes is the configured budget (0 = caching disabled).
	LimitBytes int64 `json:"limit_bytes"`
	// Hits/Misses/Evictions are cumulative since OpenStore, counted per
	// frame fetch. A fetch served from cache is a hit; a fresh decode is a
	// miss; an entry displaced by the byte budget is an eviction
	// (invalidations by Save/Create are not).
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// HitRate returns hits/(hits+misses), 0 before any fetch.
func (s StoreStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Entry describes one stored trace.
type Entry struct {
	Name   string
	Path   string
	Header Header
	Epochs int
	Events int64
	// Checkpoints counts the trace's checkpoint frames; Keyframes counts
	// those carrying a full memory image.
	Checkpoints int
	Keyframes   int
	// Size is the file size in bytes.
	Size int64
	// Complete reports whether the trace ends with its summary frame (false
	// for a recording that was cut off).
	Complete bool
	// Indexed reports whether the statistics came from the index footer
	// (one footer read) rather than a whole-file scan.
	Indexed bool
	// Err is set when the file could not be opened (torn, corrupt, or
	// foreign); such an entry is degraded — only Name and Path are valid —
	// but it never hides the store's healthy traces.
	Err error
}

// Ext is the trace file extension.
const Ext = ".irt"

// partialExt marks an in-progress recording; List ignores these, and
// PartialTrace.Commit renames them into place.
const partialExt = ".partial"

// OpenStore opens (creating if needed) a trace directory.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("trace: opening store: %w", err)
	}
	return &Store{
		dir:   dir,
		cache: make(map[frameKey]*list.Element),
		lru:   list.New(),
		limit: DefaultCacheBytes,
	}, nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// SetCacheLimit resizes the decode cache's byte budget, evicting
// least-recently-used entries that no longer fit. A limit <= 0 disables
// caching (every fetch decodes fresh).
func (s *Store) SetCacheLimit(bytes int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if bytes < 0 {
		bytes = 0
	}
	s.limit = bytes
	s.evictOverLocked(nil)
}

// Stats snapshots the decode cache counters.
func (s *Store) Stats() StoreStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		CachedFrames: s.lru.Len(),
		CachedBytes:  s.used,
		LimitBytes:   s.limit,
		Hits:         s.hits,
		Misses:       s.misses,
		Evictions:    s.evictions,
	}
}

// removeLocked drops a cache entry (invalidation or eviction).
func (s *Store) removeLocked(el *list.Element) {
	c := el.Value.(*cachedFrame)
	s.lru.Remove(el)
	delete(s.cache, c.key)
	s.used -= c.cost
}

// evictOverLocked evicts LRU entries until the budget holds, never evicting
// keep (the entry just inserted).
func (s *Store) evictOverLocked(keep *list.Element) {
	for s.used > s.limit && s.lru.Len() > 0 {
		el := s.lru.Back()
		if el == keep {
			if el = el.Prev(); el == nil {
				return
			}
		}
		s.removeLocked(el)
		s.evictions++
	}
}

// invalidate drops every cached frame of name (Save/Create rewrote it).
func (s *Store) invalidate(name string) {
	s.mu.Lock()
	var next *list.Element
	for el := s.lru.Front(); el != nil; el = next {
		next = el.Next()
		if el.Value.(*cachedFrame).key.name == name {
			s.removeLocked(el)
		}
	}
	s.mu.Unlock()
}

// lookup serves one cached frame, counting a hit or miss.
func (s *Store) lookup(key frameKey) (any, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	el, ok := s.cache[key]
	if !ok {
		s.misses++
		return nil, false
	}
	s.hits++
	s.lru.MoveToFront(el)
	return el.Value.(*cachedFrame).val, true
}

// insert caches one freshly decoded frame, evicting over-budget entries
// (never the one being inserted).
func (s *Store) insert(key frameKey, val any, cost int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.limit <= 0 {
		return
	}
	if old, ok := s.cache[key]; ok {
		s.removeLocked(old)
	}
	el := s.lru.PushFront(&cachedFrame{key: key, val: val, cost: cost})
	s.cache[key] = el
	s.used += cost
	s.evictOverLocked(el)
}

func (s *Store) cachedEpoch(name string, mark contentKey, i int) (*record.EpochLog, bool) {
	if v, ok := s.lookup(frameKey{name: name, mark: mark, kind: frameEpoch, idx: i}); ok {
		return v.(*record.EpochLog), true
	}
	return nil, false
}

func (s *Store) insertEpoch(name string, mark contentKey, i int, ep *record.EpochLog) {
	s.insert(frameKey{name: name, mark: mark, kind: frameEpoch, idx: i}, ep, epochCost(ep))
}

func (s *Store) cachedCkpt(name string, mark contentKey, k int) (*Checkpoint, bool) {
	if v, ok := s.lookup(frameKey{name: name, mark: mark, kind: frameCkpt, idx: k}); ok {
		return v.(*Checkpoint), true
	}
	return nil, false
}

func (s *Store) insertCkpt(name string, mark contentKey, k int, ck *Checkpoint) {
	s.insert(frameKey{name: name, mark: mark, kind: frameCkpt, idx: k}, ck, ckptCost(ck))
}

// epochCost approximates one decoded epoch's resident size: struct
// headers, per-event fixed fields, and syscall payload bytes.
func epochCost(ep *record.EpochLog) int64 {
	const (
		epochFixed  = 64
		threadFixed = 48
		eventFixed  = 56
		varFixed    = 32
	)
	c := int64(epochFixed)
	for i := range ep.Threads {
		tl := &ep.Threads[i]
		c += threadFixed + int64(len(tl.Events))*eventFixed
		for j := range tl.Events {
			c += int64(len(tl.Events[j].Data))
		}
	}
	for i := range ep.Vars {
		c += varFixed + 4*int64(len(ep.Vars[i].Order))
	}
	return c
}

// ckptCost approximates one decoded delta-form checkpoint's resident
// size: the raw memory delta plus the decoded state's owned bytes.
func ckptCost(ck *Checkpoint) int64 {
	const (
		ckptFixed   = 256
		threadFixed = 128
		varFixed    = 64
	)
	c := int64(ckptFixed) + int64(len(ck.memDelta))
	st := ck.State
	c += int64(len(st.Threads)) * threadFixed
	c += int64(len(st.Vars)) * varFixed
	if st.FS != nil {
		for i := range st.FS.Files {
			c += int64(len(st.FS.Files[i].Data)) + int64(len(st.FS.Files[i].Name))
		}
		c += int64(len(st.FS.FDs)) * 48
	}
	return c
}

// Path returns the file path a trace name maps to.
func (s *Store) Path(name string) string {
	return filepath.Join(s.dir, name+Ext)
}

// PartialTrace is an in-progress recording: a writable file under a
// ".partial" name that List never reports, renamed into place only by
// Commit. A recorder that crashes mid-run leaves the partial file behind
// instead of a torn trace under a valid name.
type PartialTrace struct {
	f     *os.File
	st    *Store
	name  string
	done  bool
	bytes int64
}

// Write appends to the partial file (io.Writer for trace.NewWriter).
func (p *PartialTrace) Write(b []byte) (int, error) {
	n, err := p.f.Write(b)
	p.bytes += int64(n)
	return n, err
}

// Bytes returns how many bytes have been written so far.
func (p *PartialTrace) Bytes() int64 { return p.bytes }

// Commit closes the partial file and renames it to its final trace name,
// replacing any previous trace and invalidating its cached frames. After
// Commit (or Abort) the PartialTrace is spent.
func (p *PartialTrace) Commit() error {
	if p.done {
		return fmt.Errorf("trace: partial trace %q already closed", p.name)
	}
	p.done = true
	if err := p.f.Close(); err != nil {
		os.Remove(p.f.Name())
		return fmt.Errorf("trace: closing partial %s: %w", p.name, err)
	}
	if err := os.Rename(p.f.Name(), p.st.Path(p.name)); err != nil {
		os.Remove(p.f.Name())
		return fmt.Errorf("trace: committing %s: %w", p.name, err)
	}
	p.st.invalidate(p.name)
	return nil
}

// Abort closes and removes the partial file, leaving any previous trace of
// the same name untouched. Abort after Commit is a no-op, so callers can
// defer it as crash insurance.
func (p *PartialTrace) Abort() {
	if p.done {
		return
	}
	p.done = true
	p.f.Close()
	os.Remove(p.f.Name())
}

// Create opens the named trace for a streaming Writer, applying the same
// name validation as Save. The recording lands under a ".partial" name
// until PartialTrace.Commit renames it into place, so an in-progress (or
// abandoned) recording never lists as a torn trace and a previous complete
// recording of the same name survives until the new one commits.
func (s *Store) Create(name string) (*PartialTrace, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	f, err := os.Create(s.Path(name) + partialExt)
	if err != nil {
		return nil, fmt.Errorf("trace: creating %s: %w", name, err)
	}
	return &PartialTrace{f: f, st: s, name: name}, nil
}

// Save encodes and writes a trace under name, replacing any previous trace
// with that name. The bytes land in a temporary file first and are renamed
// into place, so a crash mid-save can never leave a torn file under a
// valid name. The cache is invalidated, not primed: the caller still owns
// tr and may mutate it, while cached frames must stay immutable images of
// the file — the next fetch decodes fresh.
func (s *Store) Save(name string, tr *Trace) (string, error) {
	if err := validateName(name); err != nil {
		return "", err
	}
	b, err := Encode(tr)
	if err != nil {
		return "", err
	}
	path := s.Path(name)
	tmp, err := os.CreateTemp(s.dir, name+".*.tmp")
	if err != nil {
		return "", fmt.Errorf("trace: saving %s: %w", name, err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return "", fmt.Errorf("trace: saving %s: %w", name, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("trace: saving %s: %w", name, err)
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("trace: saving %s: %w", name, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return "", fmt.Errorf("trace: saving %s: %w", name, err)
	}
	s.invalidate(name)
	return path, nil
}

// contentMark reads the cheap content fingerprint of an open trace file:
// the header frame's CRC plus a tail sample. For indexed files the tail is
// the 8 bytes preceding the trailer — the end of the index frame, whose
// CRC covers every other frame's CRC, so any content change anywhere in
// the file changes the mark. For unindexed files the
// tail is the file's final bytes (the last frame's CRC lives there). A
// rewrite landing within the filesystem's mtime granularity still changes
// the mark unless it is byte-identical at both ends. The mark is read
// through the handle's own descriptor — never by path — so a concurrent
// rename-replace cannot key one file's frames under another file's mark.
// A few small reads — no decode, no full-file IO.
func contentMark(f io.ReaderAt, size int64) (contentKey, error) {
	var key contentKey
	hdr, _, err := frameAt(f, int64(len(Magic)), size)
	if err != nil {
		return key, fmt.Errorf("trace: reading header frame: %w", err)
	}
	key.head = hdr.crc
	tailOff := size - int64(len(key.tail))
	if size >= indexTrailerLen+int64(len(key.tail)) {
		var trailer [indexTrailerLen]byte
		if _, err := f.ReadAt(trailer[:], size-indexTrailerLen); err != nil {
			return key, err
		}
		if string(trailer[8:]) == indexTrailerMagic {
			// Indexed file: the trailer bytes are content-independent, so
			// sample the index frame's tail (its CRC) instead.
			tailOff = size - indexTrailerLen - int64(len(key.tail))
		}
	}
	if tailOff < 0 {
		tailOff = 0
	}
	span := int64(len(key.tail))
	if size-tailOff < span {
		span = size - tailOff
	}
	if _, err := f.ReadAt(key.tail[:span], tailOff); err != nil {
		return key, err
	}
	return key, nil
}

// Open returns a Handle on the named trace: one footer read for an indexed
// file, one CRC-checked scan otherwise, no epoch decode either way.
// The handle shares the store's frame cache with every other handle on the
// same content; close it when done (file-backed handles hold a
// descriptor).
func (s *Store) Open(name string) (*Handle, error) {
	if err := validateName(name); err != nil {
		return nil, err
	}
	f, size, err := openSized(s.Path(name))
	if err != nil {
		return nil, fmt.Errorf("trace: no trace %q in %s: %w", name, s.dir, err)
	}
	h, err := open(f, size, false)
	if err == nil {
		h.mark, err = contentMark(f, size)
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	h.f, h.st, h.name = f, s, name
	return h, nil
}

// Load returns the named trace fully decoded — Open plus a whole-trace
// fetch through the frame cache. Prefer Open for anything that does not
// need every epoch in memory at once.
func (s *Store) Load(name string) (*Trace, error) {
	h, err := s.Open(name)
	if err != nil {
		return nil, err
	}
	defer h.Close()
	return h.Trace()
}

// scanEntry builds the entry for one named trace from its index (footer or
// scan); Size is left for the caller (it owns the file metadata). A torn
// or foreign file degrades to an entry carrying the open error.
func (s *Store) scanEntry(name string) Entry {
	path := s.Path(name)
	f, size, err := openSized(path)
	if err != nil {
		return Entry{Name: name, Path: path, Err: err}
	}
	defer f.Close()
	hdr, ix, err := openIndex(f, size, false)
	if err != nil {
		return Entry{Name: name, Path: path, Err: err}
	}
	return Entry{
		Name:        name,
		Path:        path,
		Header:      hdr,
		Epochs:      len(ix.epochs),
		Events:      ix.events(),
		Checkpoints: len(ix.ckpts),
		Keyframes:   ix.keyframes(),
		Complete:    ix.complete,
		Indexed:     ix.footer,
	}
}

// Entry returns the store entry for one named trace, touching only that
// file — the daemon's single-trace inspection path, which must not cost a
// whole-store pass (and, for indexed traces, costs one footer read). A
// missing trace (or invalid name) is an error; a torn or corrupt file is a
// degraded entry carrying the open error, exactly as in List.
func (s *Store) Entry(name string) (Entry, error) {
	if err := validateName(name); err != nil {
		return Entry{}, err
	}
	fi, err := os.Stat(s.Path(name))
	if err != nil {
		return Entry{}, fmt.Errorf("trace: no trace %q in %s: %w", name, s.dir, err)
	}
	e := s.scanEntry(name)
	if e.Err == nil {
		e.Size = fi.Size()
	}
	return e, nil
}

// List enumerates every trace in the store, sorted by name. Indexed files
// cost one footer read each; files without a usable footer are scanned
// frame by frame (CRC-checked, statistics from frame headers). Nothing is
// decoded and the replay cache is not populated. In-progress recordings
// (".partial" files) and foreign files are skipped; torn traces degrade to
// entries carrying their error.
func (s *Store) List() ([]Entry, error) {
	des, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, de := range des {
		if de.IsDir() || !strings.HasSuffix(de.Name(), Ext) {
			continue
		}
		name := strings.TrimSuffix(de.Name(), Ext)
		e := s.scanEntry(name)
		if e.Err == nil {
			fi, err := de.Info()
			if err != nil {
				// The file scanned but its metadata vanished (e.g. deleted
				// between ReadDir and Info): degrade this entry like a torn
				// file instead of aborting the whole listing.
				e = Entry{Name: name, Path: s.Path(name), Err: err}
			} else {
				e.Size = fi.Size()
			}
		}
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// ByModule returns the stored traces recorded from the module with the
// given fingerprint.
func (s *Store) ByModule(hash uint64) ([]Entry, error) {
	all, err := s.List()
	if err != nil {
		return nil, err
	}
	var out []Entry
	for _, e := range all {
		if e.Header.ModuleHash == hash && hash != 0 {
			out = append(out, e)
		}
	}
	return out, nil
}
