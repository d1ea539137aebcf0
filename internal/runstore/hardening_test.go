package runstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"parbw/internal/fault"
)

// Integrity, quarantine, crash-consistency, and fault-injection coverage
// for the hardened store.

func putFake(t *testing.T, s *Store, seed uint64) (string, []byte) {
	t.Helper()
	key := Key(KeySpec{Experiment: "fake/exp", Seed: seed, Params: "quick=true", Version: "t"})
	data, err := s.Put(key, fakeResult(seed))
	if err != nil {
		t.Fatal(err)
	}
	return key, data
}

func TestFooterRoundTripAndOnDiskFormat(t *testing.T) {
	s := testStore(t, 8)
	key, want := putFake(t, s, 1)

	raw, err := os.ReadFile(s.path(key))
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) != len(want)+footerLen {
		t.Fatalf("on-disk size %d, want payload %d + footer %d", len(raw), len(want), footerLen)
	}
	payload, ok := splitFooter(raw)
	if !ok || !bytes.Equal(payload, want) {
		t.Fatalf("footer split: ok=%v", ok)
	}

	// Cold read (fresh store, memory empty) strips the footer.
	s2, err := Open(s.Dir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	got, found, err := s2.GetBytes(key)
	if err != nil || !found || !bytes.Equal(got, want) {
		t.Fatalf("cold read: found=%v err=%v identical=%v", found, err, bytes.Equal(got, want))
	}
}

// The footer's on-disk bytes are pinned: a fixed payload always gets the
// same footer, zero-padded to 8 lowercase hex digits, and splits back into
// exactly that payload.
func TestFooterBytesPinnedOnFixedPayload(t *testing.T) {
	for _, c := range []struct{ payload, disk string }{
		{`{"a":1}`, "{\"a\":1}\n#crc32 561bacaf\n"},
		{`{"seed":81}`, "{\"seed\":81}\n#crc32 00e412cd\n"},
		{``, "\n#crc32 00000000\n"},
	} {
		disk := appendFooter([]byte(c.payload))
		if string(disk) != c.disk {
			t.Fatalf("appendFooter(%q) = %q, want %q", c.payload, disk, c.disk)
		}
		payload, ok := splitFooter(disk)
		if !ok || string(payload) != c.payload {
			t.Fatalf("splitFooter(%q) = %q, %v; want %q, true", disk, payload, ok, c.payload)
		}
	}
	// A footer that is not exactly 8 hex digits, or whose checksum does not
	// match, does not verify.
	for _, bad := range []string{
		"{\"a\":1}\n#crc32 561BACAG\n",
		"{\"a\":1}\n#crc32 561bacae\n",
		"{\"a\":1}\n#crc32 561baca\n",
		"{\"a\":1}\n#crc32 561bacaf",
		"{\"a\":1}",
	} {
		if _, ok := splitFooter([]byte(bad)); ok {
			t.Fatalf("splitFooter(%q) verified", bad)
		}
	}
}

// A file without a CRC footer (raw canonical JSON, the format of stores
// that predate the footer) does not verify: a read reports a miss and
// quarantines it, Scrub does the same, and the key can be recomputed.
func TestFooterlessEntryQuarantinedAndRecomputable(t *testing.T) {
	s := testStore(t, 8)
	key, bare := putFake(t, s, 3)
	path := s.path(key)
	// Strip the footer, and read through a fresh store so the memory layer
	// cannot answer.
	if err := os.WriteFile(path, bare, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.Dir(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if data, ok, err := s2.GetBytes(key); err != nil || ok || data != nil {
		t.Fatalf("footer-less entry served: ok=%v err=%v", ok, err)
	}
	if st := s2.Stats(); st.Quarantined != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 quarantine + 1 miss", st)
	}
	qpath := filepath.Join(s.Dir(), QuarantineDir, key+".json")
	if got, err := os.ReadFile(qpath); err != nil || !bytes.Equal(got, bare) {
		t.Fatalf("quarantine file: %v", err)
	}

	if err := os.WriteFile(path, bare, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := s2.Scrub(); err != nil || rep.Checked != 1 || rep.Quarantined != 1 {
		t.Fatalf("Scrub = %+v, %v; want 1 checked, 1 quarantined", rep, err)
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("footer-less file still in place after Scrub: %v", err)
	}

	if _, err := s2.Put(key, fakeResult(3)); err != nil {
		t.Fatal(err)
	}
	if got, ok, err := s2.GetBytes(key); err != nil || !ok || !bytes.Equal(got, bare) {
		t.Fatalf("recomputed entry: ok=%v err=%v", ok, err)
	}
}

func TestCorruptEntryQuarantinedAndRecomputable(t *testing.T) {
	s := testStore(t, 8)
	key, want := putFake(t, s, 1)

	// Corrupt the stored file (flip payload bytes, keep the stale footer)
	// and force a disk read by reopening.
	path := s.path(key)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[2] ^= 0xff
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(s.Dir(), 8)
	if err != nil {
		t.Fatal(err)
	}

	data, ok, err := s2.GetBytes(key)
	if err != nil || ok || data != nil {
		t.Fatalf("corrupt entry served: ok=%v err=%v", ok, err)
	}
	if st := s2.Stats(); st.Quarantined != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 quarantine + 1 miss", st)
	}
	// The corrupt bytes are preserved for post-mortem...
	qpath := filepath.Join(s.Dir(), QuarantineDir, key+".json")
	if got, err := os.ReadFile(qpath); err != nil || !bytes.Equal(got, raw) {
		t.Fatalf("quarantine file: %v", err)
	}
	// ...the original slot is empty, quarantine is invisible to DiskKeys...
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("corrupt file still in place: %v", err)
	}
	keys, err := s2.DiskKeys()
	if err != nil || len(keys) != 0 {
		t.Fatalf("DiskKeys = %v, %v", keys, err)
	}
	// ...and the key is re-computable: a fresh Put fully heals it.
	if _, err := s2.Put(key, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.GetBytes(key)
	if err != nil || !ok || !bytes.Equal(got, want) {
		t.Fatalf("healed entry: ok=%v err=%v", ok, err)
	}
}

// A corrupt entry whose key is hot in memory must be dropped from the LRU
// when quarantined (disk is the source of truth).
func TestQuarantineEvictsMemoryLayer(t *testing.T) {
	s := testStore(t, 8)
	key, _ := putFake(t, s, 1)
	if err := os.WriteFile(s.path(key), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := s.Scrub(); err != nil || rep.Quarantined != 1 {
		t.Fatalf("scrub = %+v, %v", rep, err)
	}
	// Memory no longer serves the key: the next read is a disk miss.
	if _, ok, err := s.GetBytes(key); err != nil || ok {
		t.Fatalf("quarantined key still served from memory: ok=%v err=%v", ok, err)
	}
}

func TestDeleteEvictsMemoryAndDisk(t *testing.T) {
	s := testStore(t, 8)
	key, _ := putFake(t, s, 1)
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetBytes(key); err != nil || ok {
		t.Fatalf("deleted key still served: ok=%v err=%v", ok, err)
	}
	st := s.Stats()
	if st.Deletes != 1 || st.MemKeys != 0 {
		t.Fatalf("stats = %+v, want 1 delete, 0 mem keys", st)
	}
	if _, err := os.Stat(s.path(key)); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("disk file survived delete: %v", err)
	}
	// Deleting an absent key is fine.
	if err := s.Delete(key); err != nil {
		t.Fatal(err)
	}
	if err := s.Delete("zzz"); err == nil {
		t.Fatal("invalid key accepted")
	}
}

func TestOpenAndScrubSweepOrphanedTmpFiles(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	key, _ := putFake(t, s, 1)

	// Simulate two crashes mid-write: orphaned temp files in a shard dir
	// and in the root.
	shardTmp := filepath.Join(dir, key[:2], "."+key+".tmp12345")
	rootTmp := filepath.Join(dir, ".probe.tmp999")
	for _, p := range []string{shardTmp, rootTmp} {
		if err := os.WriteFile(p, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{shardTmp, rootTmp} {
		if _, err := os.Stat(p); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("%s survived Open", p)
		}
	}
	// Scrub sweeps too, and verifies the surviving entry.
	if err := os.WriteFile(shardTmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := s2.Scrub()
	if err != nil || rep.TmpSwept != 1 || rep.Checked != 1 || rep.Quarantined != 0 {
		t.Fatalf("scrub = %+v, %v", rep, err)
	}
}

func TestCheckWritable(t *testing.T) {
	s := testStore(t, 8)
	if err := s.CheckWritable(); err != nil {
		t.Fatal(err)
	}
	// Through a faulty FS, the probe reports the failure.
	plan := fault.NewPlan(1, fault.Rule{Point: "fs.create", Kind: fault.Error})
	sf, err := OpenFS(t.TempDir(), 8, fault.InjectFS(fault.OS, plan, "fs."))
	if err != nil {
		t.Fatal(err)
	}
	if err := sf.CheckWritable(); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("probe error = %v, want injected", err)
	}
}

// Injected read errors surface as errors (not silent misses), and injected
// write faults never leave a visible entry behind.
func TestInjectedFaultsThroughFSSeam(t *testing.T) {
	dir := t.TempDir()
	plan := fault.NewPlan(1,
		fault.Rule{Point: "store.fs.read", Kind: fault.Error, Count: 1},
		fault.Rule{Point: "store.fs.write", Kind: fault.PartialWrite, Count: 1},
	)
	s, err := OpenFS(dir, 8, fault.InjectFS(fault.OS, plan, "store.fs."))
	if err != nil {
		t.Fatal(err)
	}
	key := Key(KeySpec{Experiment: "fake/exp", Seed: 1, Params: "quick=true", Version: "t"})

	// First write hits the partial-write fault: Put fails, no entry and no
	// temp file remain.
	if _, err := s.Put(key, fakeResult(1)); err == nil {
		t.Fatal("partial write not surfaced")
	}
	if keys, err := s.DiskKeys(); err != nil || len(keys) != 0 {
		t.Fatalf("torn write left entries: %v, %v", keys, err)
	}
	if rep, err := s.Scrub(); err != nil || rep.TmpSwept != 0 {
		t.Fatalf("torn temp not cleaned at write time: %+v, %v", rep, err)
	}

	// Second write is clean; the armed read fault then surfaces as an error.
	if _, err := s.Put(key, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFS(dir, 8, fault.InjectFS(fault.OS, plan, "store.fs."))
	if err != nil {
		t.Fatal(err)
	}
	_, ok, err := s2.GetBytes(key)
	if ok || !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("read fault: ok=%v err=%v", ok, err)
	}
	if st := s2.Stats(); st.ReadErrors != 1 {
		t.Fatalf("stats = %+v, want 1 read error", st)
	}
	// Fault exhausted: the entry is intact underneath.
	if _, ok, err := s2.GetBytes(key); err != nil || !ok {
		t.Fatalf("entry lost after read fault: ok=%v err=%v", ok, err)
	}
}
