package main

import (
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/cliutil/clitest"
	"mlnoc/internal/core"
)

// The goldens under testdata were recorded from the command before run()
// existed; they pin stdout and every written file byte for byte.
func TestGolden(t *testing.T) {
	t.Run("faults", func(t *testing.T) {
		clitest.Golden(t, t.TempDir(), "testdata/faults",
			"-size", "4", "-cycles", "2000", "-warmup", "200", "-faults", "0.1", "-watchdog", "400",
			"-trace-out", "trace.json", "-trace-csv", "trace.csv", "-metrics-out", "metrics.json")
	})
	t.Run("islip", func(t *testing.T) {
		clitest.Golden(t, t.TempDir(), "testdata/islip",
			"-size", "4", "-policy", "islip", "-pattern", "hotspot", "-cycles", "1000")
	})
	t.Run("nn", func(t *testing.T) {
		dir := t.TempDir()
		clitest.SaveNet(t, filepath.Join(dir, "agent.gob"), core.MeshSpec(3), 15)
		clitest.Golden(t, dir, "testdata/nn", "-size", "4", "-nn", "agent.gob")
	})
}

func TestMain(m *testing.M) { clitest.Main(m, "nocsim", run) }

func TestHelp(t *testing.T) { clitest.Help(t) }

func TestRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		err  string
		code int
	}{
		{[]string{"-size", "1"}, "-size must be >= 2, got 1", 2},
		{[]string{"-topology", "torus", "-size", "2"}, "-size must be >= 3, got 2", 2},
		{[]string{"-rate", "2"}, "-rate must be in [0,1], got 2", 2},
		{[]string{"-vcs", "11"}, "-vcs must be <= 10, got 11", 2},
		{[]string{"-watchdog", "-1"}, "-watchdog must be >= 0, got -1", 2},
		{[]string{"-trace-sample", "0"}, "-trace-sample must be >= 1, got 0", 2},
		{[]string{"-log-level", "loud"}, `-log-level must be one of [debug info warn error], got "loud"`, 2},
		{[]string{"-policy", "lottery"}, `unknown policy "lottery"`, 2},
		{[]string{"-pattern", "spiral"}, `unknown pattern "spiral"`, 2},
		{[]string{"-bogus"}, "flag provided but not defined: -bogus", 2},
		{[]string{"-nn", "missing.gob"}, "open missing.gob: no such file or directory", 1},
	} {
		clitest.Reject(t, run, c.code, c.err, c.args...)
	}
}

// TestWriteErrorExits1 fills the disk under -metrics-out: the run fails with
// exit status 1 and does not report the file as written.
func TestWriteErrorExits1(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /dev/full")
	}
	var stdout strings.Builder
	err := run([]string{"-size", "4", "-cycles", "200", "-warmup", "0", "-metrics-out", "/dev/full"}, &stdout)
	if cliutil.ExitCode(err) != 1 {
		t.Fatalf("err %v: exit %d, want 1", err, cliutil.ExitCode(err))
	}
	if strings.Contains(stdout.String(), "written to") {
		t.Fatalf("reported a failed write:\n%s", stdout.String())
	}
}
