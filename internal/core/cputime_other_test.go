//go:build !unix

package core

import "time"

var processStart = time.Now()

// processCPUTime falls back to the wall clock where getrusage is missing.
func processCPUTime() time.Duration { return time.Since(processStart) }
