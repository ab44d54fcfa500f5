//go:build !linux

package main

import "time"

func sleepPrecise(d time.Duration) { time.Sleep(d) }

// cpuTime is not measured here; callers fall back to wall time.
func cpuTime() time.Duration { return 0 }
