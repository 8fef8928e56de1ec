package checkpoint

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/csalt-sim/csalt/internal/faultinject"
)

func TestInjectedWriteFailureIsStoreError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetChaos(faultinject.New(faultinject.MustParse("checkpoint.write:err")))

	err = s.Put("k1", "v1")
	var se *StoreError
	if !errors.As(err, &se) {
		t.Fatalf("Put error = %v, want *StoreError", err)
	}
	if se.Op != "append" || se.Key != "k1" || !strings.Contains(se.Path, FileName) {
		t.Errorf("StoreError lost provenance: %+v", se)
	}
	if !strings.Contains(se.Error(), dir) || !strings.Contains(se.Error(), "k1") {
		t.Errorf("rendered error names neither path nor key: %v", se)
	}
	// The failed record must not be in the index, and the next append
	// (budget exhausted) must succeed.
	var out string
	if ok, _ := s.Lookup("k1", &out); ok {
		t.Error("failed Put landed in the index")
	}
	if err := s.Put("k2", "v2"); err != nil {
		t.Errorf("append after exhausted budget: %v", err)
	}
}

func TestInjectedFsyncFailureIsStoreError(t *testing.T) {
	s, err := Open(t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetChaos(faultinject.New(faultinject.MustParse("checkpoint.fsync:err")))
	err = s.Put("k", "v")
	var se *StoreError
	if !errors.As(err, &se) || se.Op != "sync" || se.Key != "k" {
		t.Fatalf("fsync failure = %v, want sync StoreError for k", err)
	}
}

func TestInjectedTornWriteIsRepairedOnResume(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put("before", "ok"); err != nil {
		t.Fatal(err)
	}
	s.SetChaos(faultinject.New(faultinject.MustParse("store.torn:1")))
	if err := s.Put("torn", "lost"); err == nil {
		t.Fatal("torn write reported success")
	}
	s.Close()

	// Fsck sees a benign torn tail, not corruption.
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatalf("fsck: %v", err)
	}
	if rep.Records != 1 || rep.TornTail == 0 {
		t.Errorf("fsck = %+v, want 1 record and a torn tail", rep)
	}

	// Resume truncates the torn tail; the intact record survives, the torn
	// key is absent, and the store accepts appends again.
	s2, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	var out string
	if ok, _ := s2.Lookup("before", &out); !ok || out != "ok" {
		t.Errorf("intact record lost: %q %v", out, ok)
	}
	if ok, _ := s2.Lookup("torn", &out); ok {
		t.Error("torn record resurrected")
	}
	if err := s2.Put("after", "ok"); err != nil {
		t.Fatal(err)
	}
	if rep, err := s2.Fsck(); err != nil || rep.Records != 2 || rep.TornTail != 0 {
		t.Errorf("post-repair fsck = %+v, %v", rep, err)
	}
}

func TestFsckCleanStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", 1)
	s.Put("b", 2)
	s.Close()
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Records != 2 || rep.TornTail != 0 {
		t.Errorf("fsck = %+v", rep)
	}
}

func TestFsckDetectsMidFileCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	s.Put("a", 1)
	s.Put("b", 2)
	s.Close()

	// Garbage a middle line: an intact record after damage is corruption a
	// single crash cannot produce.
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("store has %d lines", len(lines))
	}
	lines[1] = lines[1][:len(lines[1])/2]
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Fsck(dir); err == nil || !strings.Contains(err.Error(), "corrupt store") {
		t.Errorf("mid-file corruption not detected: %v", err)
	}
}

func TestFsckRejectsForeignHeader(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, FileName)
	if err := os.WriteFile(path, []byte(`{"schema":"other","version":9}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Fsck(dir); err == nil {
		t.Error("foreign header accepted")
	}
	if _, err := Fsck(t.TempDir()); err == nil {
		t.Error("missing store accepted")
	}
}

// A torn append followed by more Puts must not corrupt the ledger: the
// next write truncates the partial line first, so every later record
// starts on a clean boundary and a reopened store replays all of them.
// Jobs still in flight keep appending after a failed Put, so a sweep
// depends on this self-healing.
func TestTornAppendHealsBeforeNextWrite(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	s.SetChaos(faultinject.New(faultinject.MustParse("store.torn:1@2")))

	if err := s.Put("k1", "v1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", "v2"); err == nil {
		t.Fatal("torn append reported success")
	}
	// The retry and two more appends must all survive a reopen.
	for _, kv := range [][2]string{{"k2", "v2"}, {"k3", "v3"}, {"k4", "v4"}} {
		if err := s.Put(kv[0], kv[1]); err != nil {
			t.Fatalf("Put %s after torn append: %v", kv[0], err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	fsck, err := Fsck(dir)
	if err != nil {
		t.Fatalf("fsck after healed tear: %v", err)
	}
	if fsck.TornTail != 0 || fsck.Records != 4 {
		t.Errorf("fsck = %+v, want 4 intact records and no torn tail", fsck)
	}
	re, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	for _, kv := range [][2]string{{"k1", "v1"}, {"k2", "v2"}, {"k3", "v3"}, {"k4", "v4"}} {
		var out string
		if ok, _ := re.Lookup(kv[0], &out); !ok || out != kv[1] {
			t.Errorf("after reopen, %s = %q (present %v), want %q", kv[0], out, ok, kv[1])
		}
	}
}
