package main

import (
	"strings"
	"testing"

	"mlnoc/internal/cliutil/clitest"
)

// The goldens under testdata were recorded from the command before run()
// existed; they pin stdout and every written file byte for byte.
func TestGolden(t *testing.T) {
	for _, what := range []string{"table1", "table2", "table3", "starvation", "tiebreak"} {
		t.Run(what, func(t *testing.T) {
			clitest.Golden(t, t.TempDir(), "testdata/"+what, what)
		})
	}
	t.Run("fig11", func(t *testing.T) {
		clitest.Golden(t, t.TempDir(), "testdata/fig11",
			"-no-nn", "-metrics-out", "metrics.json", "-csv", "csv", "fig11")
	})
	t.Run("flitcheck", func(t *testing.T) {
		clitest.Golden(t, t.TempDir(), "testdata/flitcheck", "-csv", "csv", "flitcheck")
	})
}

func TestMain(m *testing.M) { clitest.Main(m, "experiments", run) }

func TestHelp(t *testing.T) { clitest.Help(t) }

func TestRejects(t *testing.T) {
	for _, c := range []struct {
		args []string
		err  string
		code int
	}{
		{nil, "want one experiment, got 0 arguments", 2},
		{[]string{"table1", "table2"}, "want one experiment, got 2 arguments", 2},
		{[]string{"fig99"}, `unknown experiment "fig99"`, 2},
		{[]string{"-scale", "huge", "table1"}, `-scale must be one of [quick full], got "huge"`, 2},
		{[]string{"-quant-min-agree", "2", "quant"}, "-quant-min-agree must be in [0,1], got 2", 2},
		{[]string{"-scaling-sizes", "8,0", "scaling"}, `-scaling-sizes: "8,0" is not a positive integer list`, 2},
		{[]string{"-scaling-torus", "-scaling-sizes", "2", "scaling"}, "-scaling-sizes[0] must be >= 3, got 2", 2},
		{[]string{"-scaling-sizes", "8,65", "mesh"}, "-scaling-sizes[1] must be <= 64, got 65", 2},
		{[]string{"-scaling-sizes", strings.Repeat("2,", 16) + "2", "scaling"}, "len(-scaling-sizes) must be <= 16, got 17", 2},
	} {
		clitest.Reject(t, run, c.code, c.err, c.args...)
	}
}
