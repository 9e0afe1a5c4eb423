package main

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/cliutil/clitest"
	"mlnoc/internal/core"
	"mlnoc/internal/experiments"
	"mlnoc/internal/telemetry"
)

// goldenDir holds the goldens of this platform's training arithmetic
// (clitest.Platform). They were recorded from the command before run()
// existed.
func goldenDir(t *testing.T) string {
	dir := filepath.Join("testdata", clitest.Platform())
	if _, err := os.Stat(dir); err != nil {
		t.Skipf("no trainarb goldens for %s", dir)
	}
	return dir
}

func TestGolden(t *testing.T) {
	golden := goldenDir(t)
	t.Run("train", func(t *testing.T) {
		clitest.Golden(t, t.TempDir(), filepath.Join(golden, "train"),
			"-cycles", "2000", "-eval", "500", "-trace-out", "trace.json", "-telemetry-out", "tel")
	})
	t.Run("record-offline", func(t *testing.T) {
		dir := t.TempDir()
		clitest.Golden(t, dir, filepath.Join(golden, "record"),
			"-record", "states.gob", "-cycles", "2000")
		clitest.Golden(t, dir, filepath.Join(golden, "offline"),
			"-offline", "states.gob", "-epochs", "2", "-out", "agent.gob")
	})
	t.Run("quant", func(t *testing.T) {
		clitest.Golden(t, t.TempDir(), filepath.Join(golden, "quant"),
			"-cycles", "2000", "-eval", "500", "-quant-eval")
	})
	t.Run("apu", func(t *testing.T) {
		clitest.Golden(t, t.TempDir(), filepath.Join(golden, "apu"),
			"-apu", "-cycles", "3000", "-out", "agent.gob")
	})
}

func TestMain(m *testing.M) { clitest.Main(m, "trainarb", run) }

func TestHelp(t *testing.T) { clitest.Help(t) }

func TestRejects(t *testing.T) {
	// A dataset file of earlier releases (a gob stream), and a recording cut
	// short by nine bytes: its 36-byte header and 4-byte checksum frame a
	// body that is no longer the length the header gives.
	dir := t.TempDir()
	old, cut := filepath.Join(dir, "old.gob"), filepath.Join(dir, "cut.rec")
	if err := cliutil.WriteFile(old, func(w io.Writer) error {
		return gob.NewEncoder(w).Encode(struct{ StateSize, Actions int }{60, 15})
	}); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-record", cut, "-cycles", "200"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	fi, err := os.Stat(cut)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(cut, fi.Size()-9); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		args []string
		err  string
		code int
	}{
		{[]string{"-cycles", "999"}, "-cycles must be >= 1000, got 999", 2},
		{[]string{"-apu", "-cycles", "0"}, "-cycles must be positive, got 0", 2},
		{[]string{"-size", "1"}, "-size must be >= 2, got 1", 2},
		{[]string{"-batch", "-4"}, "-batch must be >= 0, got -4", 2},
		{[]string{"-evalrate", "3"}, "-evalrate must be in [0,1], got 3", 2},
		{[]string{"-eps", "2"}, "-eps must be in [0,1], got 2", 2},
		{[]string{"-lr", "-1"}, "-lr must be >= 0, got -1", 2},
		{[]string{"-gamma", "-0.5"}, "-gamma must be in [0,1], got -0.5", 2},
		{[]string{"-replay", "-5"}, "-replay must be >= 0, got -5", 2},
		{[]string{"-sync", "-3"}, "-sync must be >= 0, got -3", 2},
		{[]string{"-epochs", "0"}, "-epochs must be positive, got 0", 2},
		{[]string{"-quant-min-agree", "1.5"}, "-quant-min-agree must be in [0,1], got 1.5", 2},
		{[]string{"-trace-sample", "0"}, "-trace-sample must be >= 1, got 0", 2},
		{[]string{"-cycles", "1000", "-reward", "speed"}, `unknown reward "speed"`, 2},
		{[]string{"-record", "d.gob", "-behavior", "islip"}, `unknown behaviour policy "islip"`, 2},
		{[]string{"-offline", "missing.gob"}, "open missing.gob: no such file or directory", 1},
		{[]string{"-offline", old}, "rl: load dataset: not a dataset file", 1},
		{[]string{"-offline", cut}, fmt.Sprintf("rl: load dataset: body of %d bytes, file holds %d", fi.Size()-40, fi.Size()-49), 1},
	} {
		clitest.Reject(t, run, c.code, c.err, c.args...)
	}
}

// TestRecordBehaviours: -record takes every classic arbiter whose Select is
// the whole policy as its behaviour, by any of its names.
func TestRecordBehaviours(t *testing.T) {
	dir := t.TempDir()
	for name, policy := range map[string]string{
		"round-robin": "round-robin", "rr": "round-robin", "fifo": "fifo",
		"random": "random", "global-age": "global-age", "probdist": "probdist",
	} {
		var stdout strings.Builder
		path := filepath.Join(dir, name+".rec")
		if err := run([]string{"-record", path, "-behavior", name, "-cycles", "200"}, &stdout); err != nil {
			t.Fatalf("-behavior %s: %v", name, err)
		}
		if want := " under " + policy + " to " + path; !strings.Contains(stdout.String(), want) {
			t.Errorf("-behavior %s printed %q, want it to say %q", name, stdout.String(), want)
		}
	}
}

// TestWriteErrorExits1 fills the disk under -out: the run fails with exit
// status 1 and does not report the network as saved.
func TestWriteErrorExits1(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("needs /dev/full")
	}
	states := filepath.Join(t.TempDir(), "states.gob")
	if err := run([]string{"-record", states, "-cycles", "500"}, io.Discard); err != nil {
		t.Fatal(err)
	}
	var stdout strings.Builder
	err := run([]string{"-offline", states, "-epochs", "1", "-out", "/dev/full"}, &stdout)
	if cliutil.ExitCode(err) != 1 {
		t.Fatalf("err %v: exit %d, want 1", err, cliutil.ExitCode(err))
	}
	if strings.Contains(stdout.String(), "saved network") {
		t.Fatalf("reported a failed write:\n%s", stdout.String())
	}
}

// TestTelemetryIsPassive: the trained network is the same bytes whether the
// run writes its telemetry and serves its metrics or not.
func TestTelemetryIsPassive(t *testing.T) {
	dir := t.TempDir()
	train := func(name string, extra ...string) []byte {
		out := filepath.Join(dir, name)
		args := append([]string{"-cycles", "2000", "-eval", "0", "-out", out}, extra...)
		if err := run(args, io.Discard); err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	plain := train("plain.gob")
	watched := train("watched.gob", "-telemetry-out", filepath.Join(dir, "tel"),
		"-heatmap-every", "1", "-metrics-addr", "127.0.0.1:0")
	if !bytes.Equal(plain, watched) {
		t.Fatal("the network trained with -telemetry-out and -metrics-addr differs")
	}
	for _, f := range []string{"training_curves.csv", "target_syncs.csv", "weights_epoch001.csv", "weights_epoch002.csv"} {
		if _, err := os.Stat(filepath.Join(dir, "tel", f)); err != nil {
			t.Error(err)
		}
	}
}

// TestMetricsSidecar scrapes /metrics from inside a short training run whose
// curves export to trainMetrics and checks the page is valid exposition text
// holding the run's live series.
func TestMetricsSidecar(t *testing.T) {
	reg := telemetry.NewRegistry()
	addr, stop, err := startMetricsSidecar("127.0.0.1:0", reg, cliutil.Discard())
	if err != nil {
		t.Fatal(err)
	}
	defer stop()
	rec := &curves{metrics: newTrainMetrics(reg)}
	var page string
	var scrapeErr error
	if _, err := core.Train(context.Background(), core.TrainSpec{
		Env: experiments.UniformMesh(4, 1, 2), Epochs: 2, EpochCycles: 500, Seed: 1,
		Attach: rec.attach,
		OnEpoch: func(epoch int, avg float64) {
			rec.onEpoch(epoch, avg)
			if epoch == 1 {
				page, scrapeErr = scrape("http://" + addr + "/metrics")
			}
		},
	}); err != nil {
		t.Fatal(err)
	}
	if scrapeErr != nil {
		t.Fatal(scrapeErr)
	}
	fams, err := telemetry.Parse(page)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, page)
	}
	names := map[string]bool{}
	for _, f := range fams {
		names[f.Name] = true
	}
	for _, want := range []string{"mlnoc_train_loss", "mlnoc_train_steps", "mlnoc_train_epoch", "mlnoc_train_target_syncs"} {
		if !names[want] {
			t.Errorf("page lacks %s:\n%s", want, page)
		}
	}
	if !strings.Contains(page, "mlnoc_train_epoch 1\n") {
		t.Errorf("epoch gauge not live during the run:\n%s", page)
	}
	if _, err := scrape("http://" + addr + "/debug/pprof/cmdline"); err != nil {
		t.Error(err)
	}
}

func scrape(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return string(body), nil
}
