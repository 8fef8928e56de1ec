package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Profiling owns a process's runtime-profile capture: CPU and heap
// profile files for offline analysis. Both CLIs share it so the flag
// behaviour is identical everywhere.
type Profiling struct {
	cpuFile *os.File
	memPath string
}

// StartProfiling begins whatever capture the two arguments select (either
// may be empty): cpuPath starts a CPU profile that Stop finishes, memPath
// schedules a heap profile written at Stop.
func StartProfiling(cpuPath, memPath string) (*Profiling, error) {
	p := &Profiling{memPath: memPath}
	if cpuPath != "" {
		f, err := os.Create(cpuPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, fmt.Errorf("obs: starting CPU profile: %w", err)
		}
		p.cpuFile = f
	}
	return p, nil
}

// Stop finishes the CPU profile and writes the heap profile, if either was
// requested. Safe on nil.
func (p *Profiling) Stop() error {
	if p == nil {
		return nil
	}
	var first error
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			first = err
		}
		p.cpuFile = nil
	}
	if p.memPath != "" {
		runtime.GC() // fold garbage out of the heap profile
		f, err := os.Create(p.memPath)
		if err != nil {
			if first == nil {
				first = err
			}
			return first
		}
		if err := pprof.WriteHeapProfile(f); err != nil && first == nil {
			first = err
		}
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
