//go:build unix

package core

import (
	"syscall"
	"time"
)

// processCPUTime returns the user+system CPU time the test process has used
// so far, across all its threads.
func processCPUTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
