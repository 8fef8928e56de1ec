// Package checkpoint is the durable result store behind -results-dir /
// -resume: an append-only JSONL file that records each completed
// (configuration, result) pair as soon as it finishes, so a killed sweep
// restarts from where it died instead of re-simulating everything.
//
// Durability model: every record is marshalled to one self-contained line
// and handed to the kernel in a single Write call, then fsynced, so a
// crash can lose at most the record being appended — never corrupt an
// earlier one. A torn trailing line (the crash case) is detected and
// ignored on replay. The first line is a schema/version header; a store
// written by an incompatible simulator version refuses to resume rather
// than silently mixing result schemas.
package checkpoint

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Schema identifies the record layout; bump Version whenever the meaning
// of stored results changes incompatibly (e.g. a Results field is
// redefined), so stale stores fail loudly instead of resuming wrong data.
const (
	Schema  = "csalt-results"
	Version = 1
)

// FileName is the store file created inside a results directory.
const FileName = "results.jsonl"

// header is the first line of every store file.
type header struct {
	Schema  string `json:"schema"`
	Version int    `json:"version"`
}

// record is one appended line after the header.
type record struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// file is the part of *os.File the store uses. The package's tests
// substitute one whose Write or Sync fails, to drive the append path's
// failure branches.
type file interface {
	io.ReadWriteCloser
	Seek(offset int64, whence int) (int64, error)
	Stat() (os.FileInfo, error)
	Sync() error
	Truncate(size int64) error
}

// Store is an append-only key → JSON-value checkpoint log. It is safe for
// concurrent use: Put serializes appends under a mutex and Lookup reads an
// in-memory index replayed at Open.
type Store struct {
	mu       sync.Mutex
	f        file
	path     string
	entries  map[string]json.RawMessage
	loaded   int   // records replayed from disk at Open
	appended int   // records appended since Open
	good     int64 // bytes of the file known to end on a record boundary
	dirty    bool  // a failed append may have left partial bytes past good
}

// StoreError is an append-path failure with full provenance: which
// operation failed, on which store file, for which record key. Callers
// match it with errors.As.
type StoreError struct {
	Op   string // "append", "sync"
	Path string
	Key  string // "" for the header line
	Err  error
}

// Error names the operation, store path and key alongside the cause.
func (e *StoreError) Error() string {
	key := e.Key
	if key == "" {
		key = "<header>"
	}
	return fmt.Sprintf("checkpoint: %s failed on %s (key %s): %v", e.Op, e.Path, key, e.Err)
}

// Unwrap exposes the cause to errors.Is/As.
func (e *StoreError) Unwrap() error { return e.Err }

// KeyOf derives the stable identity of a value: the hex SHA-256 of its
// canonical JSON encoding. Configurations marshal with a fixed field
// order, so identical configs always map to identical keys across
// processes.
func KeyOf(v interface{}) (string, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("checkpoint: keying value: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:]), nil
}

// Open opens (or creates) the store file inside dir. With resume true an
// existing file is replayed into the index; with resume false any existing
// file is truncated so the sweep starts from a clean log. A schema or
// version mismatch on resume is an error.
func Open(dir string, resume bool) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: creating results dir: %w", err)
	}
	path := filepath.Join(dir, FileName)

	flags := os.O_RDWR | os.O_CREATE
	if !resume {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: opening store: %w", err)
	}
	s := &Store{f: f, path: path, entries: make(map[string]json.RawMessage)}

	if err := s.replay(); err != nil {
		f.Close()
		return nil, err
	}
	return s, nil
}

// replay loads the header and every intact record; a torn trailing line is
// truncated away so subsequent appends start on a clean boundary.
func (s *Store) replay() error {
	info, err := s.f.Stat()
	if err != nil {
		return err
	}
	if info.Size() == 0 {
		// Fresh store: write the header as the first line.
		return s.writeLine("", header{Schema: Schema, Version: Version})
	}

	sc := newLineScanner(s.f)
	if !sc.Scan() {
		return fmt.Errorf("checkpoint: store has no header line")
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return fmt.Errorf("checkpoint: unreadable store header: %w", err)
	}
	if h.Schema != Schema || h.Version != Version {
		return fmt.Errorf("checkpoint: store is %s/v%d, this binary writes %s/v%d — use a fresh -results-dir",
			h.Schema, h.Version, Schema, Version)
	}

	good := sc.width
	for sc.Scan() {
		r, ok := sc.record()
		if !ok {
			// A torn or garbage line: everything before it is intact;
			// drop it and anything after.
			break
		}
		s.entries[r.Key] = append(json.RawMessage(nil), r.Value...)
		s.loaded++
		good += sc.width
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("checkpoint: reading store: %w", err)
	}
	if err := s.f.Truncate(good); err != nil {
		return fmt.Errorf("checkpoint: trimming torn record: %w", err)
	}
	if _, err := s.f.Seek(0, 2); err != nil {
		return err
	}
	s.good = good
	return nil
}

// writeLine appends v as one JSON line in a single Write call and syncs.
// Every failure is wrapped in a *StoreError carrying the store path and
// the record key, so a sweep's error output names the file and record
// that lost durability — not just "sync failed".
func (s *Store) writeLine(key string, v interface{}) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(v); err != nil { // Encode appends the newline
		return &StoreError{Op: "append", Path: s.path, Key: key, Err: fmt.Errorf("encoding record: %w", err)}
	}
	line := buf.Bytes()
	// A previous failed append may have left partial bytes (a torn
	// record) past the last good boundary. Truncate them away before
	// writing, so a later Put cannot merge into the torn line and corrupt
	// every record after it — jobs still in flight keep appending after a
	// failed Put, so the store heals itself here.
	if s.dirty {
		if err := s.f.Truncate(s.good); err != nil {
			return &StoreError{Op: "append", Path: s.path, Key: key, Err: fmt.Errorf("trimming failed append: %w", err)}
		}
		if _, err := s.f.Seek(s.good, 0); err != nil {
			return &StoreError{Op: "append", Path: s.path, Key: key, Err: err}
		}
		s.dirty = false
	}
	if _, err := s.f.Write(line); err != nil {
		// A failed write may still have passed part of the record to the
		// file, as a crash mid-append does.
		s.dirty = true
		return &StoreError{Op: "append", Path: s.path, Key: key, Err: err}
	}
	if err := s.f.Sync(); err != nil {
		// The bytes may be intact but their durability is unknown; treating
		// the append as failed means the next write must re-establish the
		// boundary, so the unacknowledged record is truncated too.
		s.dirty = true
		return &StoreError{Op: "sync", Path: s.path, Key: key, Err: err}
	}
	s.good += int64(len(line))
	return nil
}

// Put durably appends one completed result under key. Re-putting a key
// overwrites the index entry (last record wins on replay, matching
// append-only semantics).
func (s *Store) Put(key string, v interface{}) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("checkpoint: encoding value: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.writeLine(key, record{Key: key, Value: raw}); err != nil {
		return err
	}
	s.entries[key] = raw
	s.appended++
	return nil
}

// Lookup decodes the stored value for key into out, reporting whether the
// key was present.
func (s *Store) Lookup(key string, out interface{}) (bool, error) {
	s.mu.Lock()
	raw, ok := s.entries[key]
	s.mu.Unlock()
	if !ok {
		return false, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return false, fmt.Errorf("checkpoint: decoding stored value: %w", err)
	}
	return true, nil
}

// Len returns the number of distinct keys currently in the index.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// Replayed returns how many intact records were loaded from disk at Open —
// the "resumed N completed jobs" number a sweep reports.
func (s *Store) Replayed() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.loaded
}

// Compact rewrites the store as header + one record per distinct key
// (sorted, so compacted stores are byte-comparable across runs), dropping
// the duplicate lines that long or repeatedly resumed sweeps accumulate
// when keys are re-put. The rewrite is atomic: a temp file in the same
// directory is fully written and fsynced before renaming over the live
// path, so a crash mid-compact leaves either the old ledger or the new one
// — never a torn mix. Returns how many duplicate records were removed.
func (s *Store) Compact() (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	removed := s.loaded + s.appended - len(s.entries)
	if removed <= 0 {
		return 0, nil
	}
	tmp, err := os.CreateTemp(filepath.Dir(s.path), FileName+".compact-*")
	if err != nil {
		return 0, fmt.Errorf("checkpoint: compact: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header{Schema: Schema, Version: Version}); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("checkpoint: compact: %w", err)
	}
	keys := make([]string, 0, len(s.entries))
	for k := range s.entries {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if err := enc.Encode(record{Key: k, Value: s.entries[k]}); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("checkpoint: compact: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("checkpoint: compact: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("checkpoint: compact: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("checkpoint: compact: %w", err)
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return 0, fmt.Errorf("checkpoint: compact: %w", err)
	}
	// Swap the live handle onto the compacted file, positioned at its end
	// so subsequent appends extend the new ledger.
	f, err := os.OpenFile(s.path, os.O_RDWR, 0o644)
	if err != nil {
		return 0, fmt.Errorf("checkpoint: compact: reopening: %w", err)
	}
	end, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return 0, fmt.Errorf("checkpoint: compact: %w", err)
	}
	s.f.Close()
	s.f = f
	s.loaded = len(s.entries)
	s.appended = 0
	s.good = end
	s.dirty = false
	return removed, nil
}

// FsckReport summarises a store file's integrity as Fsck saw it.
type FsckReport struct {
	Path       string
	Records    int   // intact records after the header
	Duplicates int   // records superseded by a later Put of the same key
	TornTail   int64 // bytes in a torn/garbage trailing region (0 = clean)
}

// Fsck validates the store file inside dir without opening it for
// writing: the header must parse and match this binary's schema/version,
// and every line after it must be an intact record. A torn *trailing*
// region (the crash case Open repairs by truncation) is reported via
// TornTail, not as an error; a garbage line *followed by intact records*
// is real corruption — an append happened after a tear, which the
// single-writer protocol makes impossible — and is an error. -resume
// runs this before replay so a damaged store is diagnosed up front.
func Fsck(dir string) (*FsckReport, error) {
	path := filepath.Join(dir, FileName)
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: fsck: %w", err)
	}
	defer f.Close()
	return fsckFile(f, path)
}

// Fsck re-validates the open store's file from the start; see the
// package-level Fsck for the checks performed.
func (s *Store) Fsck() (*FsckReport, error) {
	s.mu.Lock()
	path := s.path
	s.mu.Unlock()
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: fsck: %w", err)
	}
	defer f.Close()
	return fsckFile(f, path)
}

func fsckFile(f *os.File, path string) (*FsckReport, error) {
	rep := &FsckReport{Path: path}
	sc := newLineScanner(f)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return nil, fmt.Errorf("checkpoint: fsck %s: %w", path, err)
		}
		return nil, fmt.Errorf("checkpoint: fsck %s: store has no header line", path)
	}
	var h header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil {
		return nil, fmt.Errorf("checkpoint: fsck %s: unreadable header: %w", path, err)
	}
	if h.Schema != Schema || h.Version != Version {
		return nil, fmt.Errorf("checkpoint: fsck %s: store is %s/v%d, this binary writes %s/v%d",
			path, h.Schema, h.Version, Schema, Version)
	}
	var torn int64
	seen := make(map[string]bool)
	for sc.Scan() {
		r, ok := sc.record()
		if !ok {
			if torn > 0 {
				// Two damaged regions cannot come from one crash.
				return nil, fmt.Errorf("checkpoint: fsck %s: multiple torn regions (corrupt store)", path)
			}
			torn = sc.width
			continue
		}
		if torn > 0 {
			return nil, fmt.Errorf("checkpoint: fsck %s: intact record after a torn line (corrupt store)", path)
		}
		rep.Records++
		if seen[r.Key] {
			rep.Duplicates++
		}
		seen[r.Key] = true
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("checkpoint: fsck %s: %w", path, err)
	}
	rep.TornTail = torn
	return rep, nil
}

// lineScanner reads a store file one line at a time and knows how many
// bytes each line takes in the file: its newline counts only when the
// file has one, and a crash mid-append leaves a last line without it.
type lineScanner struct {
	*bufio.Scanner
	width      int64 // bytes of the current line, newline included if present
	terminated bool  // the current line ends in a newline
}

func newLineScanner(r io.Reader) *lineScanner {
	sc := &lineScanner{Scanner: bufio.NewScanner(r)}
	sc.Buffer(make([]byte, 0, 1<<20), 1<<26)
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		if tok != nil {
			sc.width = int64(adv)
			sc.terminated = data[adv-1] == '\n'
		}
		return adv, tok, err
	})
	return sc
}

// record decodes the current line as a record. A line is an intact
// record only if it parses, has a key and ends in a newline: a record
// whose newline never reached the file is torn too, since an append
// after it would run into it.
func (sc *lineScanner) record() (record, bool) {
	var r record
	if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Key == "" || !sc.terminated {
		return record{}, false
	}
	return r, true
}

// Close syncs and closes the underlying file; the store is unusable after.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f == nil {
		return nil
	}
	err := s.f.Sync()
	if cerr := s.f.Close(); err == nil {
		err = cerr
	}
	s.f = nil
	return err
}
