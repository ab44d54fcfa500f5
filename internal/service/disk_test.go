package service

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// distinctReqs returns n distinct small requests (seed-varied, no
// Monte-Carlo stage, so computes stay cheap).
func distinctReqs(n int) []*Request {
	reqs := make([]*Request, n)
	for i := range reqs {
		r := quickReq()
		r.Reliability = nil
		r.Seed = int64(i + 1)
		reqs[i] = r
	}
	return reqs
}

// The restart contract of the disk tier: a new Service over the same
// directory serves every previously computed response byte-identically
// without a single recompute — Misses stays 0, DiskHits counts the
// reads.
func TestDiskTierSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	reqs := distinctReqs(6)
	first := make([][]byte, len(reqs))

	svc := mustNew(t, Config{Workers: 2, DiskDir: dir})
	for i, r := range reqs {
		raw, err := svc.Do(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = raw
	}
	if st := svc.Stats(); st.DiskEntries != len(reqs) {
		t.Fatalf("disk tier holds %d entries after %d computes", st.DiskEntries, len(reqs))
	}
	svc.Close()

	// The "restarted node": a fresh Service, same directory, cold
	// memory cache.
	svc2 := mustNew(t, Config{Workers: 2, DiskDir: dir})
	defer svc2.Close()
	for i, r := range reqs {
		raw, err := svc2.Do(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, first[i]) {
			t.Fatalf("request %d: restarted node served different bytes", i)
		}
	}
	st := svc2.Stats()
	if st.Misses != 0 {
		t.Errorf("restarted node recomputed %d problems, want 0", st.Misses)
	}
	if st.DiskHits != int64(len(reqs)) {
		t.Errorf("diskHits %d, want %d", st.DiskHits, len(reqs))
	}
	// Disk-loaded entries populate the memory tier: the second round is
	// pure memory hits.
	for _, r := range reqs {
		if _, err := svc2.Do(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if st := svc2.Stats(); st.DiskHits != int64(len(reqs)) {
		t.Errorf("second round read disk again: diskHits %d", st.DiskHits)
	}
}

// Memory eviction does not lose the key: an entry evicted under
// CacheMax is re-served from disk (a DiskHit), never recomputed.
func TestDiskBacksEvictedEntries(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1, CacheMax: 2, DiskDir: t.TempDir()})
	defer svc.Close()
	reqs := distinctReqs(5)
	for _, r := range reqs {
		if _, err := svc.Do(context.Background(), r); err != nil {
			t.Fatal(err)
		}
	}
	if n := svc.Stats().CacheEntries; n > 2 {
		t.Fatalf("memory cache holds %d entries, max 2", n)
	}
	missesBefore := svc.Stats().Misses
	// reqs[0] was evicted from memory long ago; it must come off disk.
	if _, err := svc.Do(context.Background(), reqs[0]); err != nil {
		t.Fatal(err)
	}
	st := svc.Stats()
	if st.Misses != missesBefore {
		t.Error("evicted entry was recomputed despite the disk tier")
	}
	if st.DiskHits == 0 {
		t.Error("evicted entry not served from disk")
	}
}

// Failed computes must not be persisted: after a restart the failing
// key recomputes (and fails) again instead of replaying a stale error
// — the disk-tier extension of the error-pinning fix.
func TestDiskNeverPersistsErrors(t *testing.T) {
	dir := t.TempDir()
	svc := mustNew(t, Config{Workers: 1, DiskDir: dir})
	if _, err := svc.Do(context.Background(), failingReq()); err == nil {
		t.Fatal("mis-shaped exec matrix accepted")
	}
	if st := svc.Stats(); st.DiskEntries != 0 {
		t.Fatalf("failed compute persisted to disk: %d entries", st.DiskEntries)
	}
	svc.Close()
	svc2 := mustNew(t, Config{Workers: 1, DiskDir: dir})
	defer svc2.Close()
	if _, err := svc2.Do(context.Background(), failingReq()); err == nil {
		t.Fatal("restart turned a failure into a success")
	}
	if st := svc2.Stats(); st.Misses != 1 || st.DiskHits != 0 {
		t.Errorf("restarted node stats %+v: the failing key must recompute", st)
	}
}

// A torn tail — the record a crash interrupted mid-write — is
// truncated at boot: every complete record stays servable and the
// segment accepts appends again.
func TestDiskTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	reqs := distinctReqs(3)
	svc := mustNew(t, Config{Workers: 1, DiskDir: dir})
	first := make([][]byte, len(reqs))
	for i, r := range reqs {
		raw, err := svc.Do(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = raw
	}
	svc.Close()

	// Simulate the crash: a half-written record (valid magic, then
	// garbage) at the tail of the active segment.
	seg := filepath.Join(dir, "seg-000000.caft")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := make([]byte, 40)
	torn[0], torn[1], torn[2], torn[3] = 0x5C, 0xD1, 0xF7, 0xCA // diskMagic, little-endian
	for i := 4; i < len(torn); i++ {
		torn[i] = 0xFF
	}
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	svc2 := mustNew(t, Config{Workers: 1, DiskDir: dir})
	defer svc2.Close()
	for i, r := range reqs {
		raw, err := svc2.Do(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, first[i]) {
			t.Fatalf("request %d differs after torn-tail recovery", i)
		}
	}
	if st := svc2.Stats(); st.Misses != 0 {
		t.Errorf("torn tail forced %d recomputes", st.Misses)
	}
	// Appends continue cleanly past the truncation point.
	extra := quickReq()
	extra.Reliability = nil
	extra.Seed = 99
	if _, err := svc2.Do(context.Background(), extra); err != nil {
		t.Fatal(err)
	}
	if st := svc2.Stats(); st.DiskEntries != len(reqs)+1 {
		t.Errorf("disk entries %d after post-recovery append, want %d", st.DiskEntries, len(reqs)+1)
	}
}

// Segment rotation: with a tiny segment cap the store spills across
// files, and a reopen indexes all of them.
func TestDiskSegmentRotation(t *testing.T) {
	old := diskSegMax
	diskSegMax = 256
	defer func() { diskSegMax = old }()

	dir := t.TempDir()
	d, err := openDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	payload := func(i int) []byte {
		return []byte(fmt.Sprintf("response-%03d-%s", i, "x012345678901234567890123456789"))
	}
	for i := 0; i < n; i++ {
		if err := d.put(hashKey{a: uint64(i + 1), b: uint64(i + 7)}, payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if len(d.segs) < 2 {
		t.Fatalf("no rotation happened: %d segments", len(d.segs))
	}
	d.close()

	d2, err := openDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.close()
	if d2.len() != n {
		t.Fatalf("reopened index holds %d entries, want %d", d2.len(), n)
	}
	for i := 0; i < n; i++ {
		got, ok := d2.get(hashKey{a: uint64(i + 1), b: uint64(i + 7)})
		if !ok || !bytes.Equal(got, payload(i)) {
			t.Fatalf("key %d: got %q ok=%v", i, got, ok)
		}
	}
}

// Unknown files and fully corrupt segments must not wedge the boot
// scan.
func TestDiskIgnoresForeignAndCorruptFiles(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("hello"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "seg-000000.caft"), []byte("garbage garbage garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	d, err := openDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	if d.len() != 0 {
		t.Fatalf("corrupt segment produced %d index entries", d.len())
	}
	if err := d.put(hashKey{a: 1, b: 2}, []byte("resp")); err != nil {
		t.Fatal(err)
	}
	if got, ok := d.get(hashKey{a: 1, b: 2}); !ok || !bytes.Equal(got, []byte("resp")) {
		t.Fatal("put/get after corrupt boot failed")
	}
}
