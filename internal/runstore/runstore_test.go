package runstore

import (
	"bytes"
	"io"
	"os"
	"testing"

	"parbw/internal/harness"
	"parbw/internal/result"
	"parbw/internal/tablefmt"
)

func testStore(t *testing.T, maxMem int) *Store {
	t.Helper()
	s, err := Open(t.TempDir(), maxMem)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func fakeResult(seed uint64) *result.Result {
	r := result.New("fake/exp", "Fake", "nowhere", result.NewParams(seed, map[string]string{"quick": "true"}))
	r.AddTable(tablefmt.Table{Title: "t", Columns: []string{"p", "measured"}, Rows: [][]string{{"4", "16"}}})
	r.Finalize()
	return r
}

func TestKeyDeterministicAndSeedSensitive(t *testing.T) {
	a := Key(KeySpec{Experiment: "table1/broadcast", Seed: 1, Params: "quick=true", Version: harness.CodeVersion})
	b := Key(KeySpec{Experiment: "table1/broadcast", Seed: 1, Params: "quick=true", Version: harness.CodeVersion})
	if a != b {
		t.Fatalf("same spec, different keys: %s vs %s", a, b)
	}
	if !ValidKey(a) {
		t.Fatalf("key %q not 64 hex chars", a)
	}
	for _, other := range []KeySpec{
		{Experiment: "table1/broadcast", Seed: 2, Params: "quick=true", Version: harness.CodeVersion},
		{Experiment: "table1/parity", Seed: 1, Params: "quick=true", Version: harness.CodeVersion},
		{Experiment: "table1/broadcast", Seed: 1, Params: "quick=false", Version: harness.CodeVersion},
		{Experiment: "table1/broadcast", Seed: 1, Params: "g=8,quick=true", Version: harness.CodeVersion},
		{Experiment: "table1/broadcast", Seed: 1, Params: "quick=true", Version: harness.CodeVersion + "-next"},
	} {
		if Key(other) == a {
			t.Fatalf("spec %+v collides with base key", other)
		}
	}
}

// Determinism guard for the whole pipeline: running the same experiment with
// the same (id, params, seed) twice must produce the identical key and
// byte-identical stored JSON.
func TestStoredBytesIdenticalAcrossRuns(t *testing.T) {
	e, ok := harness.ByID("table1/broadcast")
	if !ok {
		t.Fatal("table1/broadcast not registered")
	}
	cfg := harness.Config{Seed: 1, Params: harness.QuickParams()}
	vals, err := e.Resolve(cfg.Params)
	if err != nil {
		t.Fatal(err)
	}
	spec := KeySpec{Experiment: e.ID, Seed: cfg.Seed, Params: vals.Canonical(), Version: harness.CodeVersion}

	s1 := testStore(t, 8)
	k1 := Key(spec)
	b1, err := s1.Put(k1, e.Run(io.Discard, cfg))
	if err != nil {
		t.Fatal(err)
	}

	s2 := testStore(t, 8)
	k2 := Key(spec)
	b2, err := s2.Put(k2, e.Run(io.Discard, cfg))
	if err != nil {
		t.Fatal(err)
	}

	if k1 != k2 {
		t.Fatalf("same (id, params, seed): keys differ: %s vs %s", k1, k2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same (id, params, seed): stored JSON differs:\n%s\n---\n%s", b1, b2)
	}
	f1, err := os.ReadFile(s1.path(k1))
	if err != nil {
		t.Fatal(err)
	}
	f2, err := os.ReadFile(s2.path(k2))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(f1, f2) {
		t.Fatal("on-disk bytes differ between the two runs")
	}

	if Key(KeySpec{Experiment: e.ID, Seed: 2, Params: "quick=true", Version: harness.CodeVersion}) == k1 {
		t.Fatal("distinct seeds produced the same key")
	}
}

func TestGetMissThenHit(t *testing.T) {
	s := testStore(t, 8)
	key := Key(KeySpec{Experiment: "fake/exp", Seed: 1, Params: "quick=true", Version: "t"})

	if _, ok, err := s.GetBytes(key); err != nil || ok {
		t.Fatalf("expected clean miss, got ok=%v err=%v", ok, err)
	}
	if _, err := s.Put(key, fakeResult(1)); err != nil {
		t.Fatal(err)
	}
	r, ok, err := s.Get(key)
	if err != nil || !ok {
		t.Fatalf("expected hit, got ok=%v err=%v", ok, err)
	}
	if r.Experiment != "fake/exp" || r.Params.Seed != 1 {
		t.Fatalf("round-trip mangled result: %+v", r)
	}

	st := s.Stats()
	if st.Misses != 1 || st.Hits != 1 || st.MemHits != 1 || st.Puts != 1 {
		t.Fatalf("stats = %+v, want 1 miss, 1 mem hit, 1 put", st)
	}
}

func TestDiskHitAfterReopen(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(KeySpec{Experiment: "fake/exp", Seed: 9, Params: "quick=true", Version: "t"})
	want, err := s.Put(key, fakeResult(9))
	if err != nil {
		t.Fatal(err)
	}

	// Fresh store over the same dir: memory cold, disk warm.
	s2, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	got, ok, err := s2.GetBytes(key)
	if err != nil || !ok {
		t.Fatalf("disk entry not found after reopen: ok=%v err=%v", ok, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("disk round-trip changed bytes")
	}
	if st := s2.Stats(); st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("stats = %+v, want exactly one disk hit", st)
	}
	// Second read is served from memory (promoted on disk hit).
	if _, _, err := s2.GetBytes(key); err != nil {
		t.Fatal(err)
	}
	if st := s2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats = %+v, want promotion to memory", st)
	}
}

func TestLRUEviction(t *testing.T) {
	s := testStore(t, 2)
	keys := make([]string, 3)
	for i := range keys {
		keys[i] = Key(KeySpec{Experiment: "fake/exp", Seed: uint64(i), Params: "quick=true", Version: "t"})
		if _, err := s.Put(keys[i], fakeResult(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	st := s.Stats()
	if st.MemKeys != 2 || st.Evictions != 1 {
		t.Fatalf("stats = %+v, want 2 mem keys and 1 eviction", st)
	}
	// Evicted key still readable from disk.
	if _, ok, err := s.GetBytes(keys[0]); err != nil || !ok {
		t.Fatalf("evicted key lost: ok=%v err=%v", ok, err)
	}
}

func TestDiskKeys(t *testing.T) {
	s := testStore(t, 4)
	want := map[string]bool{}
	for i := 0; i < 3; i++ {
		k := Key(KeySpec{Experiment: "fake/exp", Seed: uint64(i), Params: "quick=true", Version: "t"})
		want[k] = true
		if _, err := s.Put(k, fakeResult(uint64(i))); err != nil {
			t.Fatal(err)
		}
	}
	got, err := s.DiskKeys()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("DiskKeys = %v, want %d keys", got, len(want))
	}
	for _, k := range got {
		if !want[k] {
			t.Fatalf("unexpected key %s", k)
		}
	}
}

func TestInvalidKeyRejected(t *testing.T) {
	s := testStore(t, 4)
	if err := s.PutBytes("../escape", []byte("{}")); err == nil {
		t.Fatal("path-escaping key accepted")
	}
	if _, _, err := s.GetBytes("nothex"); err == nil {
		t.Fatal("short key accepted")
	}
}

// Delete must compose cleanly with quarantine: once a corrupt entry has
// been quarantined (reported as a miss), deleting its key is a no-op that
// does not error, and the key can be re-populated afterwards. This is the
// contract DELETE /v1/runs/{key} relies on for its 404-not-500 behavior.
func TestDeleteQuarantineInteraction(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}
	key := Key(KeySpec{Experiment: "fake/exp", Seed: 77, Params: "quick=true", Version: "t"})
	if _, err := s.Put(key, fakeResult(77)); err != nil {
		t.Fatal(err)
	}

	// Corrupt the on-disk entry, then reopen so the memory layer cannot
	// mask the corruption.
	if err := os.WriteFile(s.path(key), []byte("garbage, not a result"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(dir, 8)
	if err != nil {
		t.Fatal(err)
	}

	if _, ok, err := s.GetBytes(key); err != nil || ok {
		t.Fatalf("corrupt entry: want quarantined miss, got ok=%v err=%v", ok, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats = %+v, want 1 quarantined", st)
	}
	if _, err := os.Stat(s.path(key)); !os.IsNotExist(err) {
		t.Fatalf("quarantined entry still at primary path (err=%v)", err)
	}

	// Deleting the quarantined key must not error even though the primary
	// file is gone.
	if err := s.Delete(key); err != nil {
		t.Fatalf("Delete after quarantine: %v", err)
	}
	if _, ok, err := s.GetBytes(key); err != nil || ok {
		t.Fatalf("after delete: want miss, got ok=%v err=%v", ok, err)
	}

	// The key is usable again.
	if _, err := s.Put(key, fakeResult(77)); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := s.GetBytes(key); err != nil || !ok {
		t.Fatalf("after re-put: want hit, got ok=%v err=%v", ok, err)
	}
}
