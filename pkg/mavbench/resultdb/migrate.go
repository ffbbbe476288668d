package resultdb

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"mavbench/pkg/mavbench"
)

// MigrateStats summarizes a migration run.
type MigrateStats struct {
	// Migrated counts records copied into the destination.
	Migrated int `json:"migrated"`
	// Skipped counts source entries that could not be read back (corrupt,
	// truncated or vanished) — they are left behind, not fatal.
	Skipped int `json:"skipped"`
}

// Migrate imports a legacy one-file-per-hash result directory (one
// <hash>.json per result, the layout stores used before segments) into dst.
// Files replay oldest mtime first, hash breaking ties, so the destination's
// append order preserves the source's recency ranking. The source is only
// read. Names that are not a lowercase-hex hash are ignored; files that do
// not decode are counted as Skipped. A record already present in dst is
// overwritten (last-write-wins), so re-running a partially completed
// migration converges. Returns an error if the source cannot be listed or dst
// rejects writes outright (store closed).
func Migrate(srcDir string, dst *Store) (MigrateStats, error) {
	var st MigrateStats
	if dst == nil {
		return st, fmt.Errorf("resultdb: migrate requires a destination store")
	}
	dirents, err := os.ReadDir(srcDir)
	if err != nil {
		return st, fmt.Errorf("resultdb: reading migration source: %w", err)
	}
	type legacyFile struct {
		hash  string
		mtime time.Time
	}
	var files []legacyFile
	for _, de := range dirents {
		hash, ok := strings.CutSuffix(de.Name(), ".json")
		if !ok || de.IsDir() || !validHash(hash) {
			continue
		}
		info, err := de.Info()
		if err != nil {
			st.Skipped++
			continue
		}
		files = append(files, legacyFile{hash, info.ModTime()})
	}
	sort.Slice(files, func(i, j int) bool {
		if !files[i].mtime.Equal(files[j].mtime) {
			return files[i].mtime.Before(files[j].mtime)
		}
		return files[i].hash < files[j].hash
	})
	for _, f := range files {
		buf, err := os.ReadFile(filepath.Join(srcDir, f.hash+".json"))
		var res mavbench.Result
		if err != nil || json.Unmarshal(buf, &res) != nil {
			st.Skipped++
			continue
		}
		dst.Put(f.hash, res)
		if _, ok := dst.Get(f.hash); !ok {
			return st, fmt.Errorf("resultdb: migrated record %s did not round-trip; destination store unwritable?", f.hash)
		}
		st.Migrated++
	}
	return st, nil
}
