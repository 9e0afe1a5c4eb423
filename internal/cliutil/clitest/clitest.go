// Package clitest holds a command's output to goldens and its rejected
// invocations to their errors.
//
// Goldens and -h listings come from a child process, the package's test
// binary acting as the command (see Main): each golden run is a fresh process
// with a real exit status, and the process-wide state a run depends on starts
// empty (encoding/gob numbers types in the order a process first encodes
// them).
//
// A golden named g is g.stdout, the run's standard output, and g.sha256, the
// `sha256sum` lines of the files the run wrote into its working directory,
// sorted by path.
package clitest

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"

	"mlnoc/internal/cliutil"
	"mlnoc/internal/core"
	"mlnoc/internal/nn"
	"mlnoc/internal/xrand"
)

// Run is a command's entry point as cliutil.Main calls it.
type Run func(args []string, stdout io.Writer) error

// argsEnv carries a child's command-line arguments, JSON-encoded.
const argsEnv = "MLNOC_CLITEST_ARGS"

// Main is the TestMain of a command's tests: in a child started by Golden or
// Help it runs the command through cliutil.Main, which exits; otherwise it
// runs the tests.
func Main(m *testing.M, prog string, run Run) {
	if enc, ok := os.LookupEnv(argsEnv); ok {
		var args []string
		if err := json.Unmarshal([]byte(enc), &args); err != nil {
			panic(err)
		}
		os.Args = append([]string{prog}, args...)
		cliutil.Main(prog, run)
	}
	os.Exit(m.Run())
}

// child runs the command with args in dir as a child process and returns its
// stdout, stderr and exit status.
func child(t *testing.T, dir string, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	enc, err := json.Marshal(args)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), argsEnv+"="+string(enc))
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	var exit *exec.ExitError
	if err := cmd.Run(); errors.As(err, &exit) {
		code = exit.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// Golden runs the command with args in dir, requires exit status 0, and holds
// its stdout and the files it wrote into dir to the golden named golden.
// Files already in dir are the run's inputs and are not hashed.
func Golden(t *testing.T, dir, golden string, args ...string) {
	t.Helper()
	inputs := hashes(t, dir)
	stdout, stderr, code := child(t, dir, args...)
	if code != 0 {
		t.Fatalf("%v: exit %d\nstderr:\n%s", args, code, stderr)
	}
	same(t, golden+".stdout", stdout)
	sums := hashes(t, dir)
	var written []string
	for path := range sums {
		if _, ok := inputs[path]; !ok {
			written = append(written, path)
		}
	}
	sort.Strings(written)
	var manifest strings.Builder
	for _, path := range written {
		fmt.Fprintf(&manifest, "%s  %s\n", sums[path], path)
	}
	same(t, golden+".sha256", manifest.String())
}

// Help holds the command's -h flag listing and exit status 0 to
// testdata/help.txt.
func Help(t *testing.T) {
	t.Helper()
	_, stderr, code := child(t, t.TempDir(), "-h")
	if code != 0 {
		t.Fatalf("-h: exit %d, want 0", code)
	}
	same(t, filepath.Join("testdata", "help.txt"), stderr)
}

// Reject calls run with args and requires it to fail with error text want and
// exit status code.
func Reject(t *testing.T, run Run, code int, want string, args ...string) {
	t.Helper()
	err := run(args, io.Discard)
	if err == nil || err.Error() != want || cliutil.ExitCode(err) != code {
		t.Errorf("%v: got %v (exit %d), want %q (exit %d)",
			args, err, cliutil.ExitCode(err), want, code)
	}
}

// SaveNet saves to path an untrained agent network for spec built from a
// fixed seed, so a run that loads it is decided by inference alone.
func SaveNet(t *testing.T, path string, spec *core.StateSpec, hidden int) {
	t.Helper()
	net := nn.New([]int{spec.InputSize(), hidden, spec.ActionSize()},
		[]nn.Activation{nn.Sigmoid, nn.LeakyReLU}, xrand.New(7))
	if err := cliutil.WriteFile(path, net.Save); err != nil {
		t.Fatal(err)
	}
}

// Platform names this host's training arithmetic, "<GOARCH>-fma" or
// "<GOARCH>-portable", as in benchmark/golden.json: rl.TrainBatch bootstraps
// through nn.ForwardBatchFast, so an output that carries trained weights is
// pinned per GOARCH and per the kernel that call selects. The kernel is "fma"
// when ForwardBatchFast runs the AVX2+FMA kernel, whose rounding differs from
// ForwardBatch's.
func Platform() string {
	rng := xrand.New(1)
	net := nn.New([]int{504, 42, 42}, []nn.Activation{nn.Sigmoid, nn.LeakyReLU}, rng)
	xs := make([][]float64, 8)
	for i := range xs {
		xs[i] = make([]float64, 504)
		for j := range xs[i] {
			xs[i][j] = rng.Float64()
		}
	}
	var exact [][]float64
	for _, row := range net.ForwardBatch(xs) {
		exact = append(exact, append([]float64(nil), row...))
	}
	for i, row := range net.ForwardBatchFast(xs) {
		for j, v := range row {
			if v != exact[i][j] {
				return runtime.GOARCH + "-fma"
			}
		}
	}
	return runtime.GOARCH + "-portable"
}

// same fails the test when got is not the golden file's content.
func same(t *testing.T, golden, got string) {
	t.Helper()
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("%s differs:\n--- got\n%s--- want\n%s", golden, got, want)
	}
}

// hashes maps the slash-separated path of every file under dir, relative to
// dir, to its hex SHA-256.
func hashes(t *testing.T, dir string) map[string]string {
	t.Helper()
	fsys := os.DirFS(dir)
	sums := map[string]string{}
	err := fs.WalkDir(fsys, ".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := fs.ReadFile(fsys, path)
		sums[path] = fmt.Sprintf("%x", sha256.Sum256(data))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return sums
}
