package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"syscall"
	"time"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of xs; the mean of the two middle values for an even count.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the nearest-rank p-th percentile (0 < p <= 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	k := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(k, 0)]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t / float64(len(xs))
}

var inf = math.Inf(1)

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// procStatusKB reads one "<key>: N kB" line of /proc/<pid>/status, e.g.
// VmHWM, the resident-set high-water mark.
func procStatusKB(pid, key string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	sc := bufio.NewScanner(bytes.NewReader(b))
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte(key+":")); ok {
			f := bytes.Fields(rest)
			if len(f) > 0 {
				return strconv.ParseFloat(string(f[0]), 64)
			}
		}
	}
	return 0, os.ErrNotExist
}

// peakRSSReader returns a reading function for atBoundaries: process
// pid's ("self" or a number) resident-set high-water mark in MiB, reset to
// the current RSS after each reading ("5" to /proc/<pid>/clear_refs), so
// each reading is the peak since the one before. The first error is kept
// in *errp.
func peakRSSReader(pid string, errp *error) func() float64 {
	return func() float64 {
		kb, err := procStatusKB(pid, "VmHWM")
		if err == nil {
			err = os.WriteFile("/proc/"+pid+"/clear_refs", []byte("5"), 0)
		}
		if err != nil && *errp == nil {
			*errp = err
		}
		return kb / 1024
	}
}

// segments is how many equal time slices a timed window is cut into.
// Latency percentiles and peak RSS are computed per slice (see
// segmentStats and peakRSSReader), so one slow op or one burst of memory
// moves a single slice, while a change in the program moves every slice.
const segments = 7

// slice is the index of the time slice holding time stamp at.
func slice(at, window time.Duration) int {
	return min(max(int(int64(at)*segments/int64(window)), 0), segments-1)
}

// segmentStats cuts a window into segments by each op's time stamp at and
// returns the work units completed per second over the whole window, and
// the p50 and p90 of the ops' times t (ms), each the mean over the slices
// of the slice's own percentile; p50s holds the per-slice p50s in time
// order. Throughput is the window's work over seconds, or over the sum of
// the op times when seconds is 0 (one client whose ops are timed on the
// process CPU clock, back to back): a float over measured time, never
// whole ops per second. The percentiles are taken per slice so that one
// slow op moves only its own slice, and averaged rather than taking their
// median because the reference host switches between a fast and a slow
// state for seconds at a time: a median over 7 slices jumps from one state
// to the other, while the mean follows the share of the run spent in each
// (across ten seeds, train's p50 spread 13-21% with the median of the
// slices, 10-14% with their mean).
func segmentStats(at []time.Duration, t, work []float64, window time.Duration, seconds float64) (thr, p50, p90 float64, p50s []float64) {
	var ts [segments][]float64
	done, spent := 0.0, 0.0
	for i := range at {
		s := slice(at[i], window)
		ts[s] = append(ts[s], t[i])
		done += work[i]
		spent += t[i] / 1e3
	}
	if seconds > 0 {
		spent = seconds
	}
	var p90s []float64
	for _, v := range ts {
		if len(v) > 0 {
			p50s = append(p50s, median(v))
			p90s = append(p90s, percentile(v, 0.90))
		}
	}
	return done / spent, mean(p50s), mean(p90s), p50s
}

// segmentPercentile is the median over the window's slices of the p-th
// percentile of the values stamped in each slice.
func segmentPercentile(at []time.Duration, xs []float64, window time.Duration, p float64) float64 {
	var per [segments][]float64
	for i := range at {
		s := slice(at[i], window)
		per[s] = append(per[s], xs[i])
	}
	var ps []float64
	for _, v := range per {
		if len(v) > 0 {
			ps = append(ps, percentile(v, p))
		}
	}
	return median(ps)
}

// cpuTime is the CPU time this process has used, user plus system, summed
// over its threads (the Go runtime's GC workers included). The kernel
// charges a thread only while it runs, and on a guest with paravirtual
// steal accounting (Linux CONFIG_PARAVIRT_TIME_ACCOUNTING) not while the
// hypervisor has taken its vCPU away, so unlike wall time it does not move
// with the load of other tenants on a shared host.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// cpuTicks reads the aggregate "cpu" line of /proc/stat: the steal ticks
// (time the hypervisor ran something else while this VM wanted a CPU) and
// the total of all ticks.
func cpuTicks() (steal, total float64, err error) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, 0, fmt.Errorf("/proc/stat: unexpected first line %q", line)
	}
	for i, x := range f[1:] {
		v, err := strconv.ParseFloat(string(x), 64)
		if err != nil {
			return 0, 0, err
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// atBoundaries calls read at start and at the end of each of the window's
// slices, from a goroutine of its own, and delivers the segments+1 readings
// once the window has passed.
func atBoundaries(start time.Time, window time.Duration, read func() float64) <-chan []float64 {
	out := make(chan []float64, 1)
	go func() {
		vs := make([]float64, segments+1)
		for s := range vs {
			time.Sleep(time.Until(start.Add(window * time.Duration(s) / segments)))
			vs[s] = read()
		}
		out <- vs
	}()
	return out
}
