package main

import (
	"flag"
	"strings"
	"testing"
)

// parse defines the flags the test needs on a fresh set and parses
// args into it.
func parse(t *testing.T, args ...string) *flag.FlagSet {
	t.Helper()
	fs := flag.NewFlagSet("routebench", flag.ContinueOnError)
	fs.String("exp", "all", "")
	fs.String("backend", "dense", "")
	fs.String("json", "", "")
	fs.Int("n", 256, "")
	fs.Bool("timing", true, "")
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return fs
}

func TestCheckFlagsRejectsIgnoredFlag(t *testing.T) {
	err := checkFlags(parse(t, "-exp", "chaos", "-backend", "lazy", "-n", "48"), "chaos", false)
	if err == nil || !strings.Contains(err.Error(), "-backend") || strings.Contains(err.Error(), "-n") {
		t.Fatalf("-exp chaos -backend lazy -n 48: got %v, want an error naming -backend only", err)
	}
}

func TestCheckFlagsAcceptsReadFlags(t *testing.T) {
	if err := checkFlags(parse(t, "-backend", "lazy", "-n", "48", "-json", "x.json", "-timing=false"), "all", true); err != nil {
		t.Fatalf("-json bench sweep on the lazy backend: %v", err)
	}
}
