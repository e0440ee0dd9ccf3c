//go:build !unix

package obs

import "time"

// processCPU returns 0: this OS has no getrusage, so Usage.CPU reads 0.
func processCPU() time.Duration { return 0 }
