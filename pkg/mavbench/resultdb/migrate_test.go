package resultdb

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
)

// writeLegacy writes one result file of the legacy one-file-per-hash layout
// (<hash>.json holding the JSON result and a newline) with the given mtime.
func writeLegacy(t *testing.T, dir, name string, body []byte, mtime time.Time) {
	t.Helper()
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, body, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mtime, mtime); err != nil {
		t.Fatal(err)
	}
}

// legacyBody encodes result i the way the legacy layout stored it.
func legacyBody(t *testing.T, i int) []byte {
	t.Helper()
	buf, err := json.Marshal(testResult(i))
	if err != nil {
		t.Fatal(err)
	}
	return append(buf, '\n')
}

// segmentOrder lists the hashes of the first segment in append order.
func segmentOrder(t *testing.T, dir string) []string {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var order []string
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 1<<20)
	for sc.Scan() {
		var rec struct {
			Hash string `json:"hash"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("segment line: %v", err)
		}
		order = append(order, rec.Hash)
	}
	return order
}

func TestMigrateRoundTripsEveryRecord(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	const n = 30
	base := time.Now().Add(-time.Hour)
	for i := 0; i < n; i++ {
		writeLegacy(t, srcDir, testHash(i)+".json", legacyBody(t, i), base.Add(time.Duration(i)*time.Second))
	}
	dst := openTestStore(t, dstDir)
	st, err := Migrate(srcDir, dst)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if st.Migrated != n || st.Skipped != 0 {
		t.Fatalf("MigrateStats = %+v, want %d migrated", st, n)
	}
	for i := 0; i < n; i++ {
		got, ok := dst.Get(testHash(i))
		if !ok || !sameResult(got, testResult(i)) {
			t.Fatalf("record %d did not round-trip (ok=%v)", i, ok)
		}
		// The source is only read.
		if buf, err := os.ReadFile(filepath.Join(srcDir, testHash(i)+".json")); err != nil || string(buf) != string(legacyBody(t, i)) {
			t.Fatalf("source file %d changed or vanished: %v", i, err)
		}
	}
	// Re-running converges without duplicating live records.
	st2, err := Migrate(srcDir, dst)
	if err != nil || st2.Migrated != n {
		t.Fatalf("re-migrate: %+v, %v", st2, err)
	}
	if dst.Len() != n {
		t.Fatalf("re-migrate duplicated records: Len = %d, want %d", dst.Len(), n)
	}
	// And the converged store survives a reopen intact.
	dst.Close()
	reopened := openTestStore(t, dstDir)
	for i := 0; i < n; i++ {
		if got, ok := reopened.Get(testHash(i)); !ok || !sameResult(got, testResult(i)) {
			t.Fatalf("record %d lost after reopen (ok=%v)", i, ok)
		}
	}
}

// TestMigrateIgnoresUnsafeNames pins the import boundary: only
// <lowercase-hex>.json regular files are records; everything else in the
// source directory is left alone and not counted.
func TestMigrateIgnoresUnsafeNames(t *testing.T) {
	srcDir := t.TempDir()
	now := time.Now()
	writeLegacy(t, srcDir, testHash(1)+".json", legacyBody(t, 1), now)
	for _, name := range []string{"ABCDEF.json", "zz.json", ".json", "notes.txt", testHash(2) + ".json.bak", ".put-123.tmp", "LOCK"} {
		writeLegacy(t, srcDir, name, legacyBody(t, 2), now)
	}
	if err := os.Mkdir(filepath.Join(srcDir, testHash(3)+".json"), 0o755); err != nil {
		t.Fatal(err)
	}
	dst := openTestStore(t, t.TempDir())
	st, err := Migrate(srcDir, dst)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if st.Migrated != 1 || st.Skipped != 0 {
		t.Fatalf("MigrateStats = %+v, want exactly the one valid record", st)
	}
	if dst.Len() != 1 {
		t.Fatalf("Len = %d, want 1", dst.Len())
	}
	if _, ok := dst.Get(testHash(1)); !ok {
		t.Fatal("valid record not imported")
	}
}

// TestMigrateSkipsCorruptAndTruncated pins the failure semantics: a file
// that does not decode is counted as Skipped, left in place, and never stops
// the import of its neighbours.
func TestMigrateSkipsCorruptAndTruncated(t *testing.T) {
	srcDir := t.TempDir()
	now := time.Now()
	bad := map[string][]byte{
		testHash(1): []byte(`{"spec_hash": "tru`), // truncated mid-write
		testHash(2): []byte("\x00\xffgarbage"),
		testHash(3): {},
	}
	for hash, body := range bad {
		writeLegacy(t, srcDir, hash+".json", body, now)
	}
	writeLegacy(t, srcDir, testHash(4)+".json", legacyBody(t, 4), now)
	full := legacyBody(t, 5)
	writeLegacy(t, srcDir, testHash(5)+".json", full[:len(full)/2], now)

	dst := openTestStore(t, t.TempDir())
	st, err := Migrate(srcDir, dst)
	if err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	if st.Migrated != 1 || st.Skipped != 4 {
		t.Fatalf("MigrateStats = %+v, want 1 migrated, 4 skipped", st)
	}
	if got, ok := dst.Get(testHash(4)); !ok || !sameResult(got, testResult(4)) {
		t.Fatal("valid neighbour of corrupt files not imported")
	}
	for _, i := range []int{1, 2, 3, 5} {
		if _, ok := dst.Get(testHash(i)); ok {
			t.Errorf("undecodable record %d imported", i)
		}
		if _, err := os.Stat(filepath.Join(srcDir, testHash(i)+".json")); err != nil {
			t.Errorf("corrupt source file %d removed: %v", i, err)
		}
	}
}

// TestMigrateReplaysOldestFirst pins the replay order that carries the
// source's recency ranking into the destination's append order: oldest mtime
// first, and equal mtimes (coarse filesystem timestamps) broken by hash, so
// the order never depends on directory enumeration.
func TestMigrateReplaysOldestFirst(t *testing.T) {
	srcDir, dstDir := t.TempDir(), t.TempDir()
	base := time.Now().Add(-time.Hour)
	tied := base.Add(10 * time.Second)
	files := []struct {
		i     int
		mtime time.Time
	}{
		{7, base.Add(30 * time.Second)},
		{5, tied},
		{1, base.Add(20 * time.Second)},
		{9, tied},
		{3, tied},
		{2, base},
	}
	for _, f := range files {
		writeLegacy(t, srcDir, testHash(f.i)+".json", legacyBody(t, f.i), f.mtime)
	}
	dst := openTestStore(t, dstDir)
	if _, err := Migrate(srcDir, dst); err != nil {
		t.Fatalf("Migrate: %v", err)
	}
	want := []string{testHash(2), testHash(3), testHash(5), testHash(9), testHash(1), testHash(7)}
	if got := segmentOrder(t, dstDir); !reflect.DeepEqual(got, want) {
		t.Fatalf("replay order\n got %v\nwant %v", got, want)
	}
}

func TestMigrateMissingSourceFails(t *testing.T) {
	dst := openTestStore(t, t.TempDir())
	if _, err := Migrate(filepath.Join(t.TempDir(), "absent"), dst); err == nil {
		t.Fatal("Migrate from a missing directory succeeded")
	}
}
