//go:build unix

package resultdb

import (
	"strings"
	"testing"
)

// TestOpenLocksDirectory pins single ownership: a second Open of a held
// directory fails naming it, and Open after Close succeeds.
func TestOpenLocksDirectory(t *testing.T) {
	dir := t.TempDir()
	first, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	second, err := Open(dir)
	if err == nil {
		second.Close()
		first.Close()
		t.Fatal("second Open of a held directory succeeded")
	}
	if !strings.Contains(err.Error(), dir) {
		t.Errorf("lock error %q does not name the directory", err)
	}
	if err := first.Close(); err != nil {
		t.Fatal(err)
	}
	again, err := Open(dir)
	if err != nil {
		t.Fatalf("Open after Close: %v", err)
	}
	again.Close()
}
