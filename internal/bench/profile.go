package bench

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles turns on CPU and/or heap profiling (either path may be
// empty) and returns a stop function that finishes both profiles. Every
// profiling CLI in the repo (cmd/bench, cmd/alockbench) goes through this
// helper so the flags behave identically: the CPU profile covers start to
// stop, the heap profile is a post-GC snapshot taken at stop.
func StartProfiles(cpuPath, memPath string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("create cpu profile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start cpu profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return fmt.Errorf("close cpu profile: %w", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return fmt.Errorf("create mem profile: %w", err)
			}
			defer f.Close()
			runtime.GC() // report live objects, not garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("write mem profile: %w", err)
			}
		}
		return nil
	}, nil
}
