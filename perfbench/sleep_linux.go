package main

import (
	"syscall"
	"time"
)

// sleepPrecise sleeps for d in the kernel's high-resolution nanosleep. The
// runtime's timers wake short sleeps up to a millisecond late, which would
// swamp the sub-millisecond latencies of the serve workload's hits. The
// caller locks its goroutine to its thread.
func sleepPrecise(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	for syscall.Nanosleep(&ts, &ts) == syscall.EINTR {
	}
}

// cpuTime returns the user plus system CPU time the process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
