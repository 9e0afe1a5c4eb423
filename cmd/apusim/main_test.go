package main

import (
	"path/filepath"
	"testing"

	"mlnoc/internal/cliutil/clitest"
	"mlnoc/internal/core"
)

// The goldens under testdata were recorded from the command before run()
// existed; they pin stdout and every written file byte for byte.
func TestGolden(t *testing.T) {
	t.Run("trace", func(t *testing.T) {
		clitest.Golden(t, t.TempDir(), "testdata/trace",
			"-opscale", "0.02", "-trace", "-metrics-out", "metrics.json")
	})
	t.Run("mix", func(t *testing.T) {
		clitest.Golden(t, t.TempDir(), "testdata/mix",
			"-mix", "2L2H", "-policy", "global-age", "-opscale", "0.02", "-faults", "0.1")
	})
	t.Run("nn", func(t *testing.T) {
		dir := t.TempDir()
		clitest.SaveNet(t, filepath.Join(dir, "agent.gob"), core.APUSpec(), 42)
		clitest.Golden(t, dir, "testdata/nn", "-nn", "agent.gob", "-opscale", "0.02")
	})
}

func TestMain(m *testing.M) { clitest.Main(m, "apusim", run) }

func TestHelp(t *testing.T) { clitest.Help(t) }

func TestRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		err  string
		code int
	}{
		{[]string{"-opscale", "0"}, "-opscale must be positive, got 0", 2},
		{[]string{"-quadside", "2"}, "-quadside must be >= 3, got 2", 2},
		{[]string{"-faults", "1.5"}, "-faults must be in [0,1], got 1.5", 2},
		{[]string{"-mix", "xx"}, `bad -mix "xx": expected integer`, 2},
		{[]string{"-mix", "5L0H"}, "synfull: mix needs low+high == 4, got 5+0", 2},
		{[]string{"-model", "nope"}, `synfull: unknown model "nope" (have [dct histogram matrixmul reduction spmv bfs hotspot comd minife])`, 2},
		{[]string{"-policy", "nope"}, `unknown policy "nope"`, 2},
		{[]string{"-nn", "missing.gob"}, "open missing.gob: no such file or directory", 1},
	} {
		clitest.Reject(t, run, c.code, c.err, c.args...)
	}
}
