package main

import (
	"context"
	"errors"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// TestMain lets a test run this binary as autopiped itself: with
// AUTOPIPED_TEST_MAIN=1 in its environment the process runs main on its own
// command line instead of the tests.
func TestMain(m *testing.M) {
	if os.Getenv("AUTOPIPED_TEST_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRejectsParallelismFlag pins that the daemon takes no -parallelism:
// every search runs serially and -workers is its planning concurrency.
func TestRejectsParallelismFlag(t *testing.T) {
	// Were the flag accepted, the daemon would serve: bound the run.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], "-addr", "127.0.0.1:0", "-parallelism", "2")
	cmd.Env = append(os.Environ(), "AUTOPIPED_TEST_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("autopiped -parallelism 2: err = %v, want exit status 2\n%s", err, out)
	}
	if !strings.Contains(string(out), "flag provided but not defined: -parallelism") {
		t.Errorf("autopiped -parallelism 2 did not name the unknown flag:\n%s", out)
	}
}

// TestHTTPServerTimeouts checks the daemon's server bounds how long a client
// may take to send its headers and how long an idle connection stays open.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(http.NotFoundHandler())
	if hs.ReadHeaderTimeout <= 0 {
		t.Errorf("ReadHeaderTimeout = %v, want > 0", hs.ReadHeaderTimeout)
	}
	if hs.IdleTimeout <= 0 {
		t.Errorf("IdleTimeout = %v, want > 0", hs.IdleTimeout)
	}
}
