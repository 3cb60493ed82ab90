package serve

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// storeKey makes a well-formed (64-hex) key from a short label.
func storeKey(label string) string {
	return strings.Repeat("0", 64-len(label)) + label
}

func TestStoreDiskTierWriteReadRestart(t *testing.T) {
	dir := t.TempDir()
	s, err := newStore(1<<20, dir, 1<<20, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	key, val := storeKey("abc"), []byte("result bytes\n")
	s.put(key, val)

	// The entry is a plain file named by the key, exact bytes.
	onDisk, err := os.ReadFile(filepath.Join(dir, key))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(onDisk, val) {
		t.Fatalf("disk bytes %q != put bytes %q", onDisk, val)
	}
	// No temp litter once the write committed.
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".tmp") {
			t.Fatalf("leftover temp file %s after successful put", e.Name())
		}
	}

	// A "restarted" store over the same dir serves the same bytes from
	// the disk tier, then from memory (promotion).
	s2, err := newStore(1<<20, dir, 1<<20, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	got, tier, ok := s2.get(key)
	if !ok || tier != "disk" || !bytes.Equal(got, val) {
		t.Fatalf("restart get = %q tier=%q ok=%v", got, tier, ok)
	}
	if _, tier, _ := s2.get(key); tier != "hit" {
		t.Fatalf("second get after promotion tier = %q, want hit", tier)
	}
	st := scrape(s2.met, s2)
	if st[series{name: "htdp_cache_disk_hits_total"}] != 1 || st[series{name: "htdp_cache_hits_total"}] != 1 || st[series{name: "htdp_cache_disk_entries"}] != 1 {
		t.Fatalf("stats = %v", st)
	}
}

func TestStoreStartupScanSweepsTempAndForeignFiles(t *testing.T) {
	dir := t.TempDir()
	key, val := storeKey("feed"), []byte("good\n")
	if err := os.WriteFile(filepath.Join(dir, key), val, 0o644); err != nil {
		t.Fatal(err)
	}
	// A crash mid-write leaves a temp file; a foreign file is not ours.
	if err := os.WriteFile(filepath.Join(dir, "crashed-write.tmp"), []byte("partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "README"), []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := newStore(1<<20, dir, 1<<20, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "crashed-write.tmp")); !os.IsNotExist(err) {
		t.Fatal("startup scan should remove *.tmp leftovers")
	}
	if _, err := os.Stat(filepath.Join(dir, "README")); err != nil {
		t.Fatal("startup scan must not touch foreign files")
	}
	if got, tier, ok := s.get(key); !ok || tier != "disk" || !bytes.Equal(got, val) {
		t.Fatalf("scanned entry get = %q tier=%q ok=%v", got, tier, ok)
	}
	if st := scrape(s.met, s); st[series{name: "htdp_cache_disk_entries"}] != 1 {
		t.Fatalf("foreign files must not be indexed: %v", st)
	}
}

func TestStoreDiskEvictionByBytesOldestFirst(t *testing.T) {
	dir := t.TempDir()
	// Pre-populate three 4-byte entries with distinct mtimes, oldest a.
	now := time.Now()
	for i, label := range []string{"aa", "bb", "cc"} {
		p := filepath.Join(dir, storeKey(label))
		if err := os.WriteFile(p, []byte("4444"), 0o644); err != nil {
			t.Fatal(err)
		}
		mt := now.Add(time.Duration(i-3) * time.Hour)
		if err := os.Chtimes(p, mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// A bound of 8 admits only the two newest at startup.
	s, err := newStore(1<<20, dir, 8, newMetrics())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, storeKey("aa"))); !os.IsNotExist(err) {
		t.Fatal("oldest entry should have been evicted (and unlinked) at startup")
	}
	if st := scrape(s.met, s); st[series{name: "htdp_cache_disk_entries"}] != 2 || st[series{name: "htdp_cache_disk_bytes"}] != 8 {
		t.Fatalf("post-scan stats = %+v", st)
	}
	// A new put evicts the now-oldest (bb) to stay under the bound.
	s.put(storeKey("dd"), []byte("4444"))
	if _, err := os.Stat(filepath.Join(dir, storeKey("bb"))); !os.IsNotExist(err) {
		t.Fatal("LRU disk entry should have been unlinked by put")
	}
	if _, err := os.Stat(filepath.Join(dir, storeKey("dd"))); err != nil {
		t.Fatal("new entry should be on disk")
	}
	// An entry larger than the disk bound is refused outright.
	s.put(storeKey("ee"), []byte("123456789"))
	if _, err := os.Stat(filepath.Join(dir, storeKey("ee"))); !os.IsNotExist(err) {
		t.Fatal("oversized entry should not reach disk")
	}
}

func TestStoreVanishedFileIsAMiss(t *testing.T) {
	dir := t.TempDir()
	s, err := newStore(4, dir, 1<<20, newMetrics()) // tiny memory tier: entries live on disk only
	if err != nil {
		t.Fatal(err)
	}
	key := storeKey("gone")
	s.put(key, []byte("12345678")) // > memMax, so disk-only
	if err := os.Remove(filepath.Join(dir, key)); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.get(key); ok {
		t.Fatal("vanished file should be a miss")
	}
	st := scrape(s.met, s)
	if st[series{name: "htdp_cache_disk_errors_total"}] != 1 || st[series{name: "htdp_cache_disk_entries"}] != 0 {
		t.Fatalf("stats after vanished file = %v", st)
	}
	// The determinism contract makes recovery trivial: re-put restores it.
	s.put(key, []byte("12345678"))
	if _, tier, ok := s.get(key); !ok || tier != "disk" {
		t.Fatalf("re-put entry tier = %q ok=%v", tier, ok)
	}
}

func TestValidStoreKey(t *testing.T) {
	if !validStoreKey(strings.Repeat("0123456789abcdef", 4)) {
		t.Fatal("hex key rejected")
	}
	for _, bad := range []string{"", "short", strings.Repeat("g", 64), strings.Repeat("A", 64), strings.Repeat("f", 63)} {
		if validStoreKey(bad) {
			t.Fatalf("accepted invalid key %q", bad)
		}
	}
}
