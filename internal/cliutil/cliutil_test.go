package cliutil

import (
	"strings"
	"testing"
)

func TestCheckPasses(t *testing.T) {
	var c Check
	c.Positive("-size", 8)
	c.PositiveF("-opscale", 0.25)
	c.NonNegative("-watchdog", 0)
	c.Unit("-rate", 1)
	c.Unit("-faults", 0)
	c.AtLeast("-quadside", 4, 3)
	c.AtMost("-vcs", 10, 10)
	c.AtLeastU("-trace-sample", 1, 1)
	c.OneOf("-scale", "quick", "quick", "full")
	if err := c.Err(); err != nil {
		t.Fatalf("clean check failed: %v", err)
	}
	if len(c.errs) != 0 {
		t.Fatalf("errs = %v", c.errs)
	}
}

// TestRejectionMessages pins the exact wording each constraint rejects with:
// the messages are user-facing CLI output and daemon API errors, so drift is
// a compatibility break.
func TestRejectionMessages(t *testing.T) {
	cases := []struct {
		name string
		add  func(c *Check)
		want string
	}{
		{"positive", func(c *Check) { c.Positive("-size", 0) },
			"-size must be positive, got 0"},
		{"positive-negative", func(c *Check) { c.Positive("-cycles", -3) },
			"-cycles must be positive, got -3"},
		{"positivef", func(c *Check) { c.PositiveF("-opscale", 0) },
			"-opscale must be positive, got 0"},
		{"nonnegative", func(c *Check) { c.NonNegative("-watchdog", -1) },
			"-watchdog must be >= 0, got -1"},
		{"unit-low", func(c *Check) { c.Unit("-rate", -0.1) },
			"-rate must be in [0,1], got -0.1"},
		{"unit-high", func(c *Check) { c.Unit("-faults", 1.5) },
			"-faults must be in [0,1], got 1.5"},
		{"atleast", func(c *Check) { c.AtLeast("-quadside", 2, 3) },
			"-quadside must be >= 3, got 2"},
		{"atmost", func(c *Check) { c.AtMost("-vcs", 11, 10) },
			"-vcs must be <= 10, got 11"},
		{"atleastu", func(c *Check) { c.AtLeastU("-trace-sample", 0, 1) },
			"-trace-sample must be >= 1, got 0"},
		{"oneof", func(c *Check) { c.OneOf("-scale", "huge", "quick", "full") },
			`-scale must be one of [quick full], got "huge"`},
		{"spec-field", func(c *Check) { c.PositiveF("sweep.op_scale", -2) },
			"sweep.op_scale must be positive, got -2"},
	}
	for _, tc := range cases {
		var c Check
		tc.add(&c)
		err := c.Err()
		if err == nil {
			t.Fatalf("%s: expected rejection", tc.name)
		}
		if err.Error() != tc.want {
			t.Fatalf("%s: message %q, want %q", tc.name, err.Error(), tc.want)
		}
	}
}

// TestCheckRecordsAllViolations verifies a multi-flag mistake reports the
// first violation from Err while keeping the rest for callers that want the
// full list.
func TestCheckRecordsAllViolations(t *testing.T) {
	var c Check
	c.Positive("-size", -1)
	c.Unit("-rate", 2)
	c.NonNegative("-warmup", -5)
	if got := len(c.errs); got != 3 {
		t.Fatalf("recorded %d violations, want 3", got)
	}
	if !strings.Contains(c.Err().Error(), "-size") {
		t.Fatalf("first violation should name -size, got %v", c.Err())
	}
}

func TestPrintSeed(t *testing.T) {
	var b strings.Builder
	PrintSeed(&b, 42)
	if b.String() != "seed: 42\n" {
		t.Fatalf("PrintSeed wrote %q", b.String())
	}
}
