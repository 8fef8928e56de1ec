package checkpoint

import (
	"errors"
	"strings"
	"syscall"
	"testing"
)

// faultyFile stands in for a store's file and fails the next Write or
// Sync once, with EIO. With tear set, the failing Write first passes half
// the record to the real file, as a crash mid-append leaves it.
type faultyFile struct {
	file
	failWrite, tear, failSync bool
}

func (f *faultyFile) Write(p []byte) (int, error) {
	if !f.failWrite {
		return f.file.Write(p)
	}
	f.failWrite = false
	if !f.tear {
		return 0, syscall.EIO
	}
	n, err := f.file.Write(p[:len(p)/2])
	if err != nil {
		return n, err
	}
	return n, syscall.EIO
}

func (f *faultyFile) Sync() error {
	if !f.failSync {
		return f.file.Sync()
	}
	f.failSync = false
	return syscall.EIO
}

// withFaultyFile swaps the store's file for a faultyFile over it.
func withFaultyFile(s *Store) *faultyFile {
	ff := &faultyFile{file: s.f}
	s.f = ff
	return ff
}

func TestInjectedWriteFailureIsStoreError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	withFaultyFile(s).failWrite = true

	err = s.Put("k1", "v1")
	var se *StoreError
	if !errors.As(err, &se) {
		t.Fatalf("Put error = %v, want *StoreError", err)
	}
	if se.Op != "append" || se.Key != "k1" || !strings.Contains(se.Path, FileName) {
		t.Errorf("StoreError lost provenance: %+v", se)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Errorf("StoreError does not wrap the write's cause: %v", err)
	}
	if !strings.Contains(se.Error(), dir) || !strings.Contains(se.Error(), "k1") {
		t.Errorf("rendered error names neither path nor key: %v", se)
	}
	// The failed record must not be in the index, and the next append
	// (the file writes again) must succeed.
	var out string
	if ok, _ := s.Lookup("k1", &out); ok {
		t.Error("failed Put landed in the index")
	}
	if err := s.Put("k2", "v2"); err != nil {
		t.Errorf("append after a failed write: %v", err)
	}
}

// A failed fsync fails the Put, and the next append truncates the
// unacknowledged record, so a reopen replays only what was acknowledged.
func TestInjectedFsyncFailureIsStoreError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	withFaultyFile(s).failSync = true
	err = s.Put("k", "v")
	var se *StoreError
	if !errors.As(err, &se) || se.Op != "sync" || se.Key != "k" {
		t.Fatalf("fsync failure = %v, want sync StoreError for k", err)
	}
	if !errors.Is(err, syscall.EIO) {
		t.Errorf("StoreError does not wrap the sync's cause: %v", err)
	}
	if err := s.Put("k2", "v2"); err != nil {
		t.Fatalf("append after a failed fsync: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	var out string
	if ok, _ := re.Lookup("k", &out); ok {
		t.Error("record whose fsync failed survived the next append")
	}
	if ok, _ := re.Lookup("k2", &out); !ok || out != "v2" {
		t.Errorf("k2 = %q (present %v), want v2", out, ok)
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
	ff := withFaultyFile(s)
	ff.failWrite, ff.tear = true, true
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
	ff := withFaultyFile(s)

	if err := s.Put("k1", "v1"); err != nil {
		t.Fatal(err)
	}
	ff.failWrite, ff.tear = true, true
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
