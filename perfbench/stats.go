package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// median returns the middle of xs (the mean of the two middles for an even
// count); xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the same "exclusive"
// method as Python's statistics.quantiles(xs, n=4), the rule the
// benchmark's steadiness check uses, including its linear extrapolation
// for very small samples. With fewer than two values both quartiles equal
// the lone value.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(m)
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// metricName is the shape every reported metric and workload name must
// have: a letter or digit first, then letters, digits, '_', '.' or '-', at
// most 64 characters in all.
var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s may name a metric or workload.
func validName(s string) bool { return metricName.MatchString(s) }

// Fingerprint identifies the host and toolchain a record was measured
// with. Records whose fingerprints differ measure different machines, so
// comparing them says nothing about the code.
type Fingerprint struct {
	CPUModel   string `json:"cpu_model"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOAMD64    string `json:"goamd64"`
	GoVersion  string `json:"go_version"`
}

// hostFingerprint reads the current host's fingerprint.
func hostFingerprint() Fingerprint {
	fp := Fingerprint{
		CPUModel:   cpuModel(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOAMD64:    "unknown",
		GoVersion:  runtime.Version(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				fp.GOAMD64 = s.Value
			}
		}
	}
	return fp
}

// cpuModel returns the first "model name" of /proc/cpuinfo, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest names the code under measurement when no VCS revision is
// available: the SHA-256 of every .go, go.mod and golden file under root,
// in path order, skipping hidden directories (build output lives there).
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") && name != "go.mod" && !strings.HasSuffix(name, ".golden") {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", fmt.Errorf("hashing sources: %w", err)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// Record is one benchmark run as written to the record directory: the
// result line plus everything needed to decide whether two records may be
// compared.
type Record struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       bool               `json:"trace"`
	Commit      string             `json:"commit"`
	Fingerprint Fingerprint        `json:"fingerprint"`
	Digest      string             `json:"digest"`
	Checks      []string           `json:"failed_checks,omitempty"`
	Result      Result             `json:"result"`
	Info        map[string]float64 `json:"info,omitempty"`
}

// errFingerprint is returned when two records come from different hosts or
// toolchains.
var errFingerprint = errors.New("records measured on different hosts or toolchains; refusing to compare")

// compareRecords lists, per metric present in both records, the relative
// change from base to head. It refuses records whose fingerprints differ
// or that measure different workloads or modes.
func compareRecords(base, head Record) ([]string, error) {
	if base.Fingerprint != head.Fingerprint {
		return nil, fmt.Errorf("%w:\n  base %+v\n  head %+v", errFingerprint, base.Fingerprint, head.Fingerprint)
	}
	if base.Workload != head.Workload || base.Trace != head.Trace {
		return nil, fmt.Errorf("records measure %s (trace %v) and %s (trace %v)",
			base.Workload, base.Trace, head.Workload, head.Trace)
	}
	names := make([]string, 0, len(head.Result.Metrics))
	for name := range head.Result.Metrics {
		if _, ok := base.Result.Metrics[name]; ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	better := map[string]string{}
	for _, s := range append(append([]spec{}, endToEnd...), perLayer...) {
		better[s.name] = s.better
	}
	lines := make([]string, 0, len(names))
	for _, name := range names {
		b, h := base.Result.Metrics[name], head.Result.Metrics[name]
		change := "n/a"
		if b.Value != 0 {
			change = fmt.Sprintf("%+.2f%%", 100*(h.Value-b.Value)/math.Abs(b.Value))
		}
		if (better[name] == "higher" && h.Value < b.Value) || (better[name] == "lower" && h.Value > b.Value) {
			change += " worse"
		}
		lines = append(lines, fmt.Sprintf("%-32s %14.6g -> %-14.6g %-8s %s", name, b.Value, h.Value, h.Unit, change))
	}
	return lines, nil
}
