package main

import (
	"bufio"
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"os"
	"strconv"
	"strings"
	"time"
)

// peakRSSMB returns the process's peak resident set (VmHWM) in MB, or 0
// where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// digester folds output values into an FNV-64a fingerprint.
type digester struct{ h hash.Hash64 }

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) int(v int64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	d.h.Write(b[:])
}

func (d *digester) float(v float64) { d.int(int64(math.Float64bits(v))) }

func (d *digester) sum() uint64 { return d.h.Sum64() }

// subSeed derives an independent stream seed for (seed, stream, index),
// so each input is a function of the workload seed alone and not of the
// order in which a runner consumes its inputs.
func subSeed(seed int64, stream, index int) int64 {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)<<40 ^ uint64(index)
	// splitmix64 finalizer
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return int64(x >> 1)
}

// fixedRounds turns a run's budget into a round count from the nominal
// wall time of one round, so the work a run does depends on --seconds
// alone and not on how fast the program is. The count is at least
// minRounds and is rounded up to a multiple of multiple (a pool size,
// so every graph of the pool runs equally often).
func fixedRounds(budget time.Duration, roundSeconds float64, minRounds, multiple int) int {
	n := max(int(math.Ceil(budget.Seconds()/roundSeconds)), minRounds, 1)
	multiple = max(multiple, 1)
	return (n + multiple - 1) / multiple * multiple
}

// watch times one section of measured work in the process's CPU time,
// user plus system over all threads, or in wall time where the platform
// has no CPU clock. The measured sections run on one goroutine and never
// wait, so the two agree on a quiet machine; on a virtual machine whose
// kernel accounts steal time, CPU time leaves out the time the host gave
// to other guests, which wall time counts and which changes from run to
// run.
type watch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() watch { return watch{time.Now(), cpuTime()} }

func (w watch) elapsed() time.Duration {
	if w.cpu == 0 {
		return time.Since(w.wall)
	}
	return cpuTime() - w.cpu
}
