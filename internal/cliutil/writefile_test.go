package cliutil

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWriteFileFailureKeepsPrevious writes a file, then fails a second write
// after 64 KB, more than the write buffer holds, so bytes have reached the
// disk: the file must still hold the first write's bytes, and the directory
// must hold nothing else. A third write that succeeds replaces the file and
// keeps its mode.
func TestWriteFileFailureKeepsPrevious(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	first := []byte("a,b\n1,2\n")
	if err := WriteFile(path, func(w io.Writer) error { _, err := w.Write(first); return err }); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	errMidway := errors.New("midway")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write(bytes.Repeat([]byte("x"), 64<<10)); err != nil {
			return err
		}
		return errMidway
	})
	if !errors.Is(err, errMidway) {
		t.Fatalf("WriteFile = %v, want the writer's error", err)
	}
	check := func(want []byte) {
		t.Helper()
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("file holds %q (%v), want %q", got, err, want)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			names := []string{}
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Fatalf("directory holds %q, want only %s", names, filepath.Base(path))
		}
	}
	check(first)
	second := []byte("c\n")
	if err := WriteFile(path, func(w io.Writer) error { _, err := w.Write(second); return err }); err != nil {
		t.Fatal(err)
	}
	check(second)
	if fi, err := os.Stat(path); err != nil || fi.Mode().Perm() != 0o600 {
		t.Fatalf("replaced file's mode %v (%v), want 0600", fi.Mode().Perm(), err)
	}
}

// TestWriteFileThroughSymlink writes to a symbolic link, a path that is not
// a regular file, as a device such as /dev/null is not: it is written in
// place, through the link, and the link stays.
func TestWriteFileThroughSymlink(t *testing.T) {
	dir := t.TempDir()
	target, link := filepath.Join(dir, "target"), filepath.Join(dir, "link")
	if err := os.WriteFile(target, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(target, link); err != nil {
		t.Skip(err)
	}
	if err := WriteFile(link, func(w io.Writer) error { _, err := io.WriteString(w, "new"); return err }); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Lstat(link); err != nil || fi.Mode()&os.ModeSymlink == 0 {
		t.Fatalf("link replaced: %v (%v)", fi.Mode(), err)
	}
	if got, err := os.ReadFile(target); err != nil || string(got) != "new" {
		t.Fatalf("target holds %q (%v), want \"new\"", got, err)
	}
}
