package runstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// This file is the store's self-healing surface: quarantine of corrupt
// entries, the orphaned-temp-file sweep, the full Scrub pass, and the
// writability probe used by the service's readiness endpoint.

// quarantine moves key's disk file into <dir>/quarantine/<key>.json and
// drops the key from the memory layer, so the next Get is a clean miss and
// the corrupt bytes stay available for post-mortem. Best effort: if the
// move fails the file is removed instead, so a corrupt entry can never be
// served twice.
func (s *Store) quarantine(key string) {
	qdir := filepath.Join(s.dir, QuarantineDir)
	src := s.path(key)
	moved := s.fs.MkdirAll(qdir, 0o755) == nil &&
		s.fs.Rename(src, filepath.Join(qdir, key+".json")) == nil
	if !moved {
		s.fs.Remove(src)
	}
	s.mu.Lock()
	s.dropMemLocked(key)
	s.stats.Quarantined++
	s.mu.Unlock()
}

// isTmpName reports whether name matches the CreateTemp pattern used by
// PutBytes (".<key>.tmp<random>") or the writability probe.
func isTmpName(name string) bool {
	return strings.HasPrefix(name, ".") && strings.Contains(name, ".tmp")
}

// sweepTmp removes temp files orphaned by a crash between CreateTemp and
// Rename. Called by Open and Scrub; errors are ignored (a sweep that loses
// the race with a concurrent writer must not fail the open).
func (s *Store) sweepTmp() int {
	swept := 0
	s.eachShard(func(shard string, entries []os.DirEntry) error {
		for _, e := range entries {
			if !e.IsDir() && isTmpName(e.Name()) {
				if s.fs.Remove(filepath.Join(shard, e.Name())) == nil {
					swept++
				}
			}
		}
		return nil
	})
	return swept
}

// ScrubReport summarizes one Scrub pass.
type ScrubReport struct {
	Checked     int `json:"checked"`     // disk entries verified
	Quarantined int `json:"quarantined"` // entries that failed verification
	TmpSwept    int `json:"tmp_swept"`   // orphaned temp files removed
}

// Scrub re-verifies every disk entry's CRC footer, quarantines the ones
// that fail (a file without a footer fails), and sweeps orphaned temp files.
// It returns what it found; the error is non-nil only if the store
// directory itself cannot be listed.
func (s *Store) Scrub() (ScrubReport, error) {
	rep := ScrubReport{TmpSwept: s.sweepTmp()}
	keys, err := s.DiskKeys()
	if err != nil {
		return rep, err
	}
	for _, key := range keys {
		data, err := s.fs.ReadFile(s.path(key))
		if err != nil {
			if errors.Is(err, os.ErrNotExist) {
				continue // deleted under us; nothing to verify
			}
			// Unreadable is as bad as corrupt: get it out of the way.
			s.quarantine(key)
			rep.Quarantined++
			continue
		}
		rep.Checked++
		if _, ok := splitFooter(data); !ok {
			s.quarantine(key)
			rep.Quarantined++
		}
	}
	return rep, nil
}

// CheckWritable probes that the store can actually persist data: it writes
// a temp file in the store root, then removes it. Used by the service's
// readiness endpoint so "ready" means "a run submitted now can be cached".
func (s *Store) CheckWritable() error {
	f, err := s.fs.CreateTemp(s.dir, ".probe.tmp*")
	if err != nil {
		return fmt.Errorf("runstore: not writable: %w", err)
	}
	name := f.Name()
	_, werr := f.Write([]byte("probe"))
	cerr := f.Close()
	s.fs.Remove(name)
	if werr != nil {
		return fmt.Errorf("runstore: not writable: %w", werr)
	}
	if cerr != nil {
		return fmt.Errorf("runstore: not writable: %w", cerr)
	}
	return nil
}
