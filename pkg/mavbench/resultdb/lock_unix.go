//go:build unix

package resultdb

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
)

// lockDir takes an exclusive advisory lock on <dir>/LOCK so a segment
// directory has one owner at a time: two appenders would interleave records,
// and each Open deletes *.tmp files another process's compaction may still be
// writing. The lock is held by the returned file and dies with the process,
// so a crash never leaves the directory locked.
func lockDir(dir string) (*os.File, error) {
	f, err := os.OpenFile(filepath.Join(dir, "LOCK"), os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("resultdb: opening lock file: %w", err)
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		return nil, fmt.Errorf("resultdb: store dir %s is in use by another store: %w", dir, err)
	}
	return f, nil
}
