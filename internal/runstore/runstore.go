// Package runstore is a content-addressed store for experiment results.
//
// The key of a run is the SHA-256 of the canonical JSON of its identity —
// experiment id, parameters (seed, quick), and harness code version — so
// identical invocations of a deterministic experiment always map to the same
// key, and any change to parameters or experiment semantics maps to a fresh
// one. Values are the canonical JSON bytes of the structured result
// (internal/result), which the harness guarantees are byte-identical across
// repeated runs.
//
// Layout: one file per run, <dir>/<first two key hex chars>/<key>.json,
// written atomically (temp file + rename) through a filesystem seam
// (fault.FS) so chaos tests can inject disk faults. Every file written by
// the store carries a CRC32 footer line, and reads verify it. A file
// without a valid footer is moved to <dir>/quarantine/ and reported as a
// miss — a corrupt entry costs one recompute, never a wedged key. Orphaned
// temp files from torn writes are swept on Open and by Scrub (scrub.go).
//
// A bounded in-memory LRU layer fronts the disk so hot keys — the "serve
// the same sweep again" case — are returned without touching the
// filesystem. Hit/miss/quarantine counters are exported for the service's
// /statsz endpoint.
package runstore

import (
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"parbw/internal/fault"
	"parbw/internal/result"
)

// KeySpec is the identity of a run. Field order is part of the key format:
// reordering fields changes every key (encoding/json emits declaration
// order), which is equivalent to a code-version bump.
type KeySpec struct {
	Experiment string `json:"experiment"`
	Seed       uint64 `json:"seed"`
	// Params is the canonical "k=v,k=v" rendering of the run's fully
	// resolved parameter assignment (harness.Resolved.Canonical /
	// result.Params.Canonical). Canonicalization makes the key independent
	// of value spelling and map order; including every resolved param means
	// two runs share a key exactly when they compute the same thing.
	Params  string `json:"params"`
	Version string `json:"version"` // harness.CodeVersion
}

// Key returns the content address of spec: hex SHA-256 of its canonical
// JSON.
func Key(spec KeySpec) string {
	b, err := json.Marshal(spec)
	if err != nil {
		// KeySpec contains only scalars; Marshal cannot fail.
		panic(fmt.Sprintf("runstore: marshal keyspec: %v", err))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// ValidKey reports whether s looks like a store key (64 hex chars).
func ValidKey(s string) bool {
	if len(s) != 64 {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// QuarantineDir is the subdirectory (under the store root) that corrupt
// entries are moved into.
const QuarantineDir = "quarantine"

// Stats are the store's counters since Open. Hits = MemHits + DiskHits.
type Stats struct {
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	MemHits     uint64 `json:"mem_hits"`
	DiskHits    uint64 `json:"disk_hits"`
	Puts        uint64 `json:"puts"`
	Deletes     uint64 `json:"deletes"`
	Evictions   uint64 `json:"evictions"`
	Quarantined uint64 `json:"quarantined"`
	ReadErrors  uint64 `json:"read_errors"`
	MemKeys     int    `json:"mem_keys"`
}

type memEntry struct {
	key  string
	data []byte
}

// Store is a content-addressed run store: disk as the source of truth, an
// LRU-bounded in-memory layer in front. Safe for concurrent use.
type Store struct {
	dir    string
	maxMem int
	fs     fault.FS

	mu    sync.Mutex
	ll    *list.List // front = most recently used
	mem   map[string]*list.Element
	stats Stats
}

// DefaultMaxMem is the in-memory entry bound used when Open is given
// maxMem <= 0.
const DefaultMaxMem = 256

// Open creates (if needed) and opens a store rooted at dir, backed by the
// real filesystem. maxMem bounds the number of results kept in memory;
// <= 0 selects DefaultMaxMem. Orphaned temp files left by torn writes are
// swept before the store is returned.
func Open(dir string, maxMem int) (*Store, error) {
	return OpenFS(dir, maxMem, fault.OS)
}

// OpenFS is Open over an explicit filesystem seam; chaos tests pass a
// fault.InjectFS to exercise disk-failure paths.
func OpenFS(dir string, maxMem int, fsys fault.FS) (*Store, error) {
	if dir == "" {
		return nil, errors.New("runstore: empty dir")
	}
	if fsys == nil {
		fsys = fault.OS
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	if maxMem <= 0 {
		maxMem = DefaultMaxMem
	}
	s := &Store{
		dir:    dir,
		maxMem: maxMem,
		fs:     fsys,
		ll:     list.New(),
		mem:    map[string]*list.Element{},
	}
	// Crash consistency: a process killed between CreateTemp and Rename
	// leaves a .tmp file behind; sweep them so they cannot accumulate.
	s.sweepTmp()
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

func (s *Store) path(key string) string {
	return filepath.Join(s.dir, key[:2], key+".json")
}

// The integrity footer: "\n#crc32 " + 8 lowercase hex digits + "\n",
// appended after the canonical JSON payload. Canonical JSON is a single
// line, so the footer is unambiguous.
const (
	footerPrefix = "\n#crc32 "
	footerLen    = len(footerPrefix) + 8 + 1
)

func appendFooter(data []byte) []byte {
	out := make([]byte, 0, len(data)+footerLen)
	out = append(out, data...)
	out = append(out, footerPrefix...)
	out = hex.AppendEncode(out, binary.BigEndian.AppendUint32(nil, crc32.ChecksumIEEE(data)))
	return append(out, '\n')
}

// splitFooter splits a stored file into its payload (the exact bytes Put was
// given) and reports whether it ends in an integrity footer whose checksum
// matches that payload.
func splitFooter(data []byte) (payload []byte, ok bool) {
	if len(data) < footerLen || data[len(data)-1] != '\n' {
		return nil, false
	}
	foot := data[len(data)-footerLen:]
	if !bytes.HasPrefix(foot, []byte(footerPrefix)) {
		return nil, false
	}
	var sum [4]byte
	if _, err := hex.Decode(sum[:], foot[len(footerPrefix):footerLen-1]); err != nil {
		return nil, false
	}
	payload = data[:len(data)-footerLen]
	return payload, crc32.ChecksumIEEE(payload) == binary.BigEndian.Uint32(sum[:])
}

// GetBytes returns the stored canonical JSON for key, reporting whether it
// was found. The memory layer is consulted first, then disk (promoting the
// value into memory on a disk hit). A disk entry that fails integrity
// verification is quarantined and reported as a miss, so the caller
// recomputes instead of failing forever.
func (s *Store) GetBytes(key string) ([]byte, bool, error) {
	if !ValidKey(key) {
		return nil, false, fmt.Errorf("runstore: invalid key %q", key)
	}
	s.mu.Lock()
	if el, ok := s.mem[key]; ok {
		s.ll.MoveToFront(el)
		s.stats.Hits++
		s.stats.MemHits++
		data := el.Value.(*memEntry).data
		s.mu.Unlock()
		return data, true, nil
	}
	s.mu.Unlock()

	data, err := s.fs.ReadFile(s.path(key))
	if errors.Is(err, os.ErrNotExist) {
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false, nil
	}
	if err != nil {
		s.mu.Lock()
		s.stats.ReadErrors++
		s.mu.Unlock()
		return nil, false, fmt.Errorf("runstore: read %s: %w", key, err)
	}
	payload, ok := splitFooter(data)
	if !ok {
		s.quarantine(key)
		s.mu.Lock()
		s.stats.Misses++
		s.mu.Unlock()
		return nil, false, nil
	}
	s.mu.Lock()
	s.stats.Hits++
	s.stats.DiskHits++
	s.admit(key, payload)
	s.mu.Unlock()
	return payload, true, nil
}

// Get is GetBytes followed by a decode into a structured result.
func (s *Store) Get(key string) (*result.Result, bool, error) {
	data, ok, err := s.GetBytes(key)
	if err != nil || !ok {
		return nil, ok, err
	}
	r, err := result.Decode(data)
	if err != nil {
		return nil, false, fmt.Errorf("runstore: corrupt entry %s: %w", key, err)
	}
	return r, true, nil
}

// Put stores r under key and returns the canonical bytes written. Writes are
// atomic (temp file + rename), so readers never observe partial JSON.
func (s *Store) Put(key string, r *result.Result) ([]byte, error) {
	data, err := r.CanonicalJSON()
	if err != nil {
		return nil, fmt.Errorf("runstore: encode: %w", err)
	}
	if err := s.PutBytes(key, data); err != nil {
		return nil, err
	}
	return data, nil
}

// PutBytes stores pre-encoded canonical JSON under key. The on-disk file is
// data plus a CRC32 footer; GetBytes strips the footer, so reads return
// exactly these bytes.
func (s *Store) PutBytes(key string, data []byte) error {
	if !ValidKey(key) {
		return fmt.Errorf("runstore: invalid key %q", key)
	}
	path := s.path(key)
	if err := s.fs.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	tmp, err := s.fs.CreateTemp(filepath.Dir(path), "."+key+".tmp*")
	if err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	if _, err := tmp.Write(appendFooter(data)); err != nil {
		tmp.Close()
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("runstore: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("runstore: close %s: %w", key, err)
	}
	if err := s.fs.Rename(tmp.Name(), path); err != nil {
		s.fs.Remove(tmp.Name())
		return fmt.Errorf("runstore: rename %s: %w", key, err)
	}
	s.mu.Lock()
	s.stats.Puts++
	s.admit(key, data)
	s.mu.Unlock()
	return nil
}

// Delete removes key from both the memory layer and disk. Deleting an
// absent key is not an error.
func (s *Store) Delete(key string) error {
	if !ValidKey(key) {
		return fmt.Errorf("runstore: invalid key %q", key)
	}
	s.mu.Lock()
	s.dropMemLocked(key)
	s.stats.Deletes++
	s.mu.Unlock()
	if err := s.fs.Remove(s.path(key)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("runstore: delete %s: %w", key, err)
	}
	return nil
}

// dropMemLocked evicts key from the memory layer. Caller holds s.mu.
func (s *Store) dropMemLocked(key string) {
	if el, ok := s.mem[key]; ok {
		s.ll.Remove(el)
		delete(s.mem, key)
	}
}

// admit inserts or refreshes key in the memory layer, evicting from the LRU
// tail past maxMem. Caller holds s.mu.
func (s *Store) admit(key string, data []byte) {
	if el, ok := s.mem[key]; ok {
		el.Value.(*memEntry).data = data
		s.ll.MoveToFront(el)
		return
	}
	s.mem[key] = s.ll.PushFront(&memEntry{key: key, data: data})
	for s.ll.Len() > s.maxMem {
		tail := s.ll.Back()
		s.ll.Remove(tail)
		delete(s.mem, tail.Value.(*memEntry).key)
		s.stats.Evictions++
	}
}

// Stats returns a snapshot of the counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.MemKeys = s.ll.Len()
	return st
}

// DiskKeys returns every key currently stored on disk (unsorted), skipping
// the quarantine directory.
func (s *Store) DiskKeys() ([]string, error) {
	var keys []string
	err := s.eachShard(func(shard string, entries []os.DirEntry) error {
		for _, e := range entries {
			if e.IsDir() {
				continue
			}
			if key, found := strings.CutSuffix(e.Name(), ".json"); found && ValidKey(key) {
				keys = append(keys, key)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("runstore: walk: %w", err)
	}
	return keys, nil
}

// eachShard calls fn for every shard subdirectory (the two-hex-char fan-out
// dirs) plus the root itself, skipping quarantine. fn receives the shard
// path and its entries.
func (s *Store) eachShard(fn func(shard string, entries []os.DirEntry) error) error {
	top, err := s.fs.ReadDir(s.dir)
	if err != nil {
		return err
	}
	if err := fn(s.dir, top); err != nil {
		return err
	}
	for _, e := range top {
		if !e.IsDir() || e.Name() == QuarantineDir {
			continue
		}
		shard := filepath.Join(s.dir, e.Name())
		entries, err := s.fs.ReadDir(shard)
		if err != nil {
			return err
		}
		if err := fn(shard, entries); err != nil {
			return err
		}
	}
	return nil
}
