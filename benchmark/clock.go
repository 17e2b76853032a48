package main

import (
	"bufio"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// The benchmark runs on virtual machines whose host takes CPUs away at
// will; Linux reports the time it did as "steal" in /proc/stat. Stolen
// time is not the program's, and on the 2-vCPU machine this benchmark
// was tuned on it came and went in bursts of up to a quarter of all CPU
// time, about 8% on average over half an hour of runs. So every stage
// time subtracts it: the wall time minus the steal that accrued
// meanwhile, averaged over the CPUs.

// userHZ is the unit of /proc/stat counters on every Linux platform Go
// supports.
const userHZ = 100

// stealTotal returns the CPU time stolen from all CPUs since boot, or 0
// where /proc/stat has no steal column.
func stealTotal() time.Duration {
	f, err := os.Open("/proc/stat")
	if err != nil {
		return 0
	}
	defer f.Close()
	line, err := bufio.NewReader(f).ReadString('\n')
	if err != nil {
		return 0
	}
	fields := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0
	}
	ticks, err := strconv.ParseUint(fields[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(ticks) * time.Second / userHZ
}

// stopwatch times one stage.
type stopwatch struct {
	start time.Time
	steal time.Duration
}

func startWatch() stopwatch { return stopwatch{start: time.Now(), steal: stealTotal()} }

// own returns the stage's wall time with the steal that accrued during
// it taken out.
func (w stopwatch) own() time.Duration {
	return ownTime(time.Since(w.start), stealTotal()-w.steal)
}

// ownTime takes the steal summed over all CPUs, divided by their number,
// out of a wall time. The correction is capped at half the wall time, so
// the coarse steal clock cannot make a short stage vanish.
func ownTime(wall, steal time.Duration) time.Duration {
	stolen := steal / time.Duration(runtime.NumCPU())
	if stolen > wall/2 {
		stolen = wall / 2
	}
	return wall - stolen
}

// series times a stage that is repeated: set-up, the snapshot write, the
// compaction. The steal counter ticks in 10 ms, 5 ms once divided over
// two CPUs, which on a single 10-50 ms repetition is a 10-50%
// correction that it either gets or does not. So consecutive
// repetitions are pooled into batches of at least minBatch of wall time,
// where a tick is at most 2.5%, and a batch's time per repetition is its
// steal-free time divided by its repetitions. Only the repetitions
// themselves are timed, not the work between them. The series reports
// the median batch.
type series struct {
	batches     []float64 // seconds per repetition, one per closed batch
	wall, steal time.Duration
	reps        int // in the open batch
}

const minBatch = 200 * time.Millisecond

// run times fn as one repetition, recording it as a span named name.
func (s *series) run(tr *tracer, name string, fn func() error) error {
	w := startWatch()
	err := fn()
	end := time.Now()
	s.wall += end.Sub(w.start)
	s.steal += stealTotal() - w.steal
	s.reps++
	tr.add(name, -1, -1, w.start, end)
	if s.wall >= minBatch {
		s.closeBatch()
	}
	return err
}

func (s *series) closeBatch() {
	if s.reps == 0 {
		return
	}
	s.batches = append(s.batches, ownTime(s.wall, s.steal).Seconds()/float64(s.reps))
	s.wall, s.steal, s.reps = 0, 0, 0
}

// median closes the open batch and returns the median batch's time per
// repetition, in seconds.
func (s *series) median() float64 {
	s.closeBatch()
	return median(s.batches)
}
