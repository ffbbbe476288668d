//go:build !unix

package resultdb

import "os"

// lockDir is a no-op where flock is unavailable: single ownership of a
// segment directory is then the operator's responsibility.
func lockDir(dir string) (*os.File, error) { return nil, nil }
