package obs

import (
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// StartProfiles starts the pprof captures the commands' -cpuprofile and
// -memprofile flags name and returns a stop function to run when the
// measured work completes: it ends the CPU profile and writes the allocation
// profile. With both paths empty the returned stop is a no-op, so callers can
// defer it unconditionally.
func StartProfiles(cpu, mem string) (stop func() error, err error) {
	var cpuFile *os.File
	if cpu != "" {
		cpuFile, err = os.Create(cpu)
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
				return err
			}
		}
		if mem == "" {
			return nil
		}
		f, err := os.Create(mem)
		if err != nil {
			return fmt.Errorf("create mem profile: %w", err)
		}
		defer f.Close()
		runtime.GC() // settle live objects so the heap profile reflects retained memory
		if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
			return fmt.Errorf("write mem profile: %w", err)
		}
		return nil
	}, nil
}
