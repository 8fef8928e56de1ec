package experiment

import (
	"encoding/json"
	"errors"
	"runtime"
	"testing"
	"time"

	"github.com/csalt-sim/csalt/internal/faultinject"
	"github.com/csalt-sim/csalt/internal/sim"
	"github.com/csalt-sim/csalt/internal/snapshot"
	"github.com/csalt-sim/csalt/internal/workload"
)

// TestRunnerSnapshotDrainResumeByteIdentical is the runner-level drain
// contract: a job stopped mid-run by SnapshotStopAll leaves a durable
// snapshot behind, and a fresh runner (a fresh process stand-in) pointed
// at the same directory resumes it to a byte-identical result, then
// clears the slot. With the snapshot.restore point firing on that real
// snapshot, the fresh runner must instead quarantine it and simulate from
// zero, still to a byte-identical result.
func TestRunnerSnapshotDrainResumeByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run snapshot test")
	}
	cfg := microScale.BaseConfig()
	// Long enough that the drain request below always lands mid-run.
	cfg.MaxRefsPerCore = 400_000
	cfg.Mix = workload.Mix{ID: "snapdrain", VM1: workload.GUPS, VM2: workload.StreamCluster}

	clean := NewRunner(microScale)
	want, err := clean.Run(cfg)
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}
	wantJSON, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name                 string
		chaos                string
		resumed, quarantined int
	}{
		{name: "resume", resumed: 1},
		{name: "restore_fault", chaos: "snapshot.restore:1", quarantined: 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := drainedSnapshot(t, cfg)

			// Resume: a fresh runner over the same directory.
			r2 := NewRunner(microScale)
			r2.SnapshotDir = dir
			if tc.chaos != "" {
				sched, err := faultinject.Parse(tc.chaos)
				if err != nil {
					t.Fatal(err)
				}
				r2.Chaos = faultinject.New(sched)
			}
			got, err := r2.Run(cfg)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if n := r2.Resumed(); n != tc.resumed {
				t.Errorf("resumed runner restored %d jobs, want %d", n, tc.resumed)
			}
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if string(gotJSON) != string(wantJSON) {
				t.Error("resumed Results differ from uninterrupted run")
			}
			info, err := snapshot.ScanDir(dir)
			if err != nil || info.Snapshots != 0 || info.Quarantined != tc.quarantined {
				t.Errorf("after the resumed run: %+v err=%v, want no snapshot and %d quarantined",
					info, err, tc.quarantined)
			}
		})
	}
}

// drainedSnapshot runs cfg under a snapshotting runner, hammers the drain
// request until the in-flight job stops at a poll boundary with its final
// snapshot persisted, and returns the directory holding that snapshot.
func drainedSnapshot(t *testing.T, cfg sim.Config) string {
	t.Helper()
	dir := t.TempDir()
	r1 := NewRunner(microScale)
	r1.SnapshotDir = dir
	r1.SnapshotEvery = 50_000
	errCh := make(chan error, 1)
	go func() {
		_, err := r1.Run(cfg)
		errCh <- err
	}()
	var runErr error
	deadline := time.After(30 * time.Second)
drain:
	for {
		r1.SnapshotStopAll()
		select {
		case runErr = <-errCh:
			break drain
		case <-deadline:
			t.Fatal("drained job never returned")
		default:
			runtime.Gosched()
		}
	}
	if !errors.Is(runErr, sim.ErrSnapshotStop) {
		t.Fatalf("drained run: err=%v, want ErrSnapshotStop", runErr)
	}
	if info, err := snapshot.ScanDir(dir); err != nil || info.Snapshots != 1 {
		t.Fatalf("after drain: %+v err=%v, want exactly one snapshot", info, err)
	}
	if r1.Cached(cfg) {
		t.Error("interrupted job left a memoised result")
	}
	return dir
}
