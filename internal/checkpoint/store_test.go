package checkpoint

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

type payload struct {
	Name  string
	Value float64
}

func TestPutLookupRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	want := payload{Name: "fig3", Value: 0.625}
	key, err := KeyOf(want)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(key, want); err != nil {
		t.Fatal(err)
	}
	var got payload
	ok, err := s.Lookup(key, &got)
	if err != nil || !ok {
		t.Fatalf("Lookup = %v, %v; want hit", ok, err)
	}
	if got != want {
		t.Errorf("round trip: got %+v want %+v", got, want)
	}
	if ok, _ := s.Lookup("no-such-key", &got); ok {
		t.Error("Lookup hit on absent key")
	}
}

func TestResumeReplaysEntries(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 5)
	for i := range keys {
		p := payload{Name: fmt.Sprint("job", i), Value: float64(i)}
		keys[i], _ = KeyOf(p)
		if err := s.Put(keys[i], p); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Replayed() != len(keys) || r.Len() != len(keys) {
		t.Fatalf("replayed %d/%d entries, want %d", r.Replayed(), r.Len(), len(keys))
	}
	for i, k := range keys {
		var p payload
		if ok, err := r.Lookup(k, &p); !ok || err != nil {
			t.Fatalf("entry %d lost across resume: %v %v", i, ok, err)
		}
		if p.Value != float64(i) {
			t.Errorf("entry %d decoded to %+v", i, p)
		}
	}
}

func TestOpenWithoutResumeTruncates(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, false)
	k, _ := KeyOf("x")
	if err := s.Put(k, "x"); err != nil {
		t.Fatal(err)
	}
	s.Close()

	fresh, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.Len() != 0 || fresh.Replayed() != 0 {
		t.Errorf("non-resume open kept %d entries", fresh.Len())
	}
}

// TestTornTrailingRecord simulates a crash mid-append: the last line is
// incomplete, and a resume must keep every intact record, drop the torn
// one, and leave the file appendable.
func TestTornTrailingRecord(t *testing.T) {
	dir := t.TempDir()
	s, _ := Open(dir, false)
	k1, _ := KeyOf(1)
	k2, _ := KeyOf(2)
	if err := s.Put(k1, payload{Name: "whole", Value: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(k2, payload{Name: "doomed", Value: 2}); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Tear the final record in half.
	path := filepath.Join(dir, FileName)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	trimmed := strings.TrimSuffix(string(data), "\n")
	cut := strings.LastIndexByte(trimmed, '\n') + 1 + 10 // 10 bytes into the last record
	if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
		t.Fatal(err)
	}

	r, err := Open(dir, true)
	if err != nil {
		t.Fatalf("resume over torn record: %v", err)
	}
	defer r.Close()
	if r.Replayed() != 1 {
		t.Fatalf("replayed %d records, want 1 (torn one dropped)", r.Replayed())
	}
	var p payload
	if ok, _ := r.Lookup(k1, &p); !ok || p.Name != "whole" {
		t.Errorf("intact record lost: %v %+v", p, p)
	}
	if ok, _ := r.Lookup(k2, &p); ok {
		t.Error("torn record resurrected")
	}
	// The file must be cleanly appendable after the trim.
	if err := r.Put(k2, payload{Name: "rewritten", Value: 3}); err != nil {
		t.Fatal(err)
	}
	if ok, _ := r.Lookup(k2, &p); !ok || p.Name != "rewritten" {
		t.Errorf("append after trim: %+v", p)
	}
}

func TestVersionMismatchRefusesResume(t *testing.T) {
	dir := t.TempDir()
	hdr, _ := json.Marshal(header{Schema: Schema, Version: Version + 1})
	if err := os.WriteFile(filepath.Join(dir, FileName), append(hdr, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, true); err == nil {
		t.Fatal("resumed a store with a future schema version")
	}
}

func TestConcurrentPuts(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	const n = 16
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			k, _ := KeyOf(i)
			if err := s.Put(k, payload{Name: fmt.Sprint(i), Value: float64(i)}); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	s.Close()

	r, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != n {
		t.Errorf("%d entries survived %d concurrent puts", r.Len(), n)
	}
}

func TestKeyOfIsStable(t *testing.T) {
	a, err := KeyOf(payload{Name: "x", Value: 1.5})
	if err != nil {
		t.Fatal(err)
	}
	b, _ := KeyOf(payload{Name: "x", Value: 1.5})
	c, _ := KeyOf(payload{Name: "x", Value: 1.5000001})
	if a != b {
		t.Error("identical values keyed differently")
	}
	if a == c {
		t.Error("distinct values collided")
	}
	if len(a) != 64 {
		t.Errorf("key %q is not hex sha-256", a)
	}
}

// records counts the record lines in s's file, read back by Fsck.
func records(t *testing.T, s *Store) int {
	t.Helper()
	rep, err := s.Fsck()
	if err != nil {
		t.Fatal(err)
	}
	return rep.Records
}

func TestCompactRemovesDuplicates(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	// Three keys, the first re-put three times: six records, three live.
	for i, k := range []string{"a", "a", "b", "a", "c", "b"} {
		if err := s.Put(k, payload{Name: k, Value: float64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	if got := records(t, s); got != 6 {
		t.Fatalf("fsck records = %d, want 6", got)
	}
	removed, err := s.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("Compact removed %d, want 3", removed)
	}
	if got := records(t, s); got != 3 {
		t.Fatalf("fsck records after compact = %d, want 3", got)
	}
	// Last-put values must survive, and appends must still work.
	var p payload
	if ok, err := s.Lookup("a", &p); err != nil || !ok || p.Value != 3 {
		t.Fatalf("post-compact Lookup(a) = %v %v %v, want value 3", ok, err, p)
	}
	if err := s.Put("d", payload{Name: "d", Value: 9}); err != nil {
		t.Fatalf("append after compact: %v", err)
	}
	s.Close()

	// The compacted-and-appended file must replay cleanly and completely.
	r, err := Open(dir, true)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != 4 || r.Replayed() != 4 {
		t.Fatalf("reopened store has %d entries (%d replayed), want 4", r.Len(), r.Replayed())
	}
	if ok, _ := r.Lookup("d", &p); !ok || p.Value != 9 {
		t.Fatalf("post-compact append lost: %v %v", ok, p)
	}
	rep, err := Fsck(dir)
	if err != nil {
		t.Fatalf("fsck after compact: %v", err)
	}
	if rep.Records != 4 || rep.TornTail != 0 {
		t.Fatalf("fsck after compact: %+v", rep)
	}
}

func TestCompactNoDuplicatesIsNoop(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, false)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, k := range []string{"a", "b"} {
		if err := s.Put(k, payload{Name: k}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s.Compact()
	if err != nil || removed != 0 {
		t.Fatalf("Compact on clean store: removed=%d err=%v, want 0 nil", removed, err)
	}
}
