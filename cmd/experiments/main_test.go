package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/csalt-sim/csalt/internal/checkpoint"
)

// runMainEnv makes the test binary run the command instead of the tests,
// so each test can execute the command as a process and check its exit
// code and output.
const runMainEnv = "EXPERIMENTS_TEST_RUN_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(runMainEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// experiments runs the command with args and returns its stdout, stderr
// and exit code.
func experiments(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), runMainEnv+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
	case errors.As(err, &exit):
		code = exit.ExitCode()
	default:
		t.Fatalf("running experiments %v: %v", args, err)
	}
	return out.String(), errOut.String(), code
}

func TestUsageErrorsExit2(t *testing.T) {
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-chaos", "x"}, "flag provided but not defined: -chaos"},
		{[]string{"-chaos-sweep", "1"}, "flag provided but not defined: -chaos-sweep"},
		{[]string{"-chaos-seed", "1"}, "flag provided but not defined: -chaos-seed"},
		{[]string{"-retries", "1"}, "flag provided but not defined: -retries"},
		{[]string{"-run", "fig3", "-scale", "tiny", "-resume"}, "-resume needs -results-dir"},
	} {
		_, stderr, code := experiments(t, c.args...)
		if code != exitUsage || !strings.Contains(stderr, c.msg) {
			t.Errorf("experiments %v exited %d, want %d with %q; stderr:\n%s",
				c.args, code, exitUsage, c.msg, stderr)
		}
	}
}

// -fsck on a store a crash left mid-append reports the records it holds
// and the torn tail's exact size, truncates the tail and compacts the
// duplicates, leaving the file on a record boundary.
func TestFsckRepairsTornTail(t *testing.T) {
	dir := t.TempDir()
	s, err := checkpoint.Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{"a", "b", "a"} {
		if err := s.Put(k, k); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, checkpoint.FileName)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	const tail = `{"key":"c","val` // no newline: the append died midway
	if _, err := f.WriteString(tail); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	stdout, stderr, code := experiments(t, "-fsck", "-results-dir", dir)
	if code != 0 {
		t.Fatalf("-fsck exited %d; stderr:\n%s", code, stderr)
	}
	if want := "fsck " + path + ": 3 records, 2 distinct keys\n"; !strings.HasPrefix(stdout, want) {
		t.Errorf("-fsck output does not start with %q:\n%s", want, stdout)
	}
	if want := fmt.Sprintf("torn tail: %d bytes", len(tail)); !strings.Contains(stdout, want) {
		t.Errorf("-fsck output does not report %q:\n%s", want, stdout)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasSuffix(data, []byte("\n")) {
		t.Errorf("store does not end on a record boundary: %q", data)
	}
	rep, err := checkpoint.Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.Duplicates != 0 || rep.TornTail != 0 {
		t.Errorf("store after -fsck = %+v, want 2 records, no duplicates, no torn tail", rep)
	}
}
