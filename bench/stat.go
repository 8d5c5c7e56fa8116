package main

import (
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of an ascending slice by
// the nearest-rank rule: the smallest element with at least q of the
// sample at or below it. Nearest rank never invents a latency that no
// operation had. An empty slice yields 0.
func quantile(sorted []int64, q float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// goodQuartile returns the quartile of vs on the side the metric calls
// better: the 25th percentile (nearest rank) of a lower-is-better
// metric, the 75th of a higher-is-better one. Interference from the
// host — a neighbour on the same core, a cold cache — only ever makes a
// trial worse, so the good-side quartile tracks the undisturbed program
// where the median tracks the host; it is still not the single
// luckiest trial.
func goodQuartile(vs []float64, better string) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	rank := (len(s)+3)/4 - 1 // ceil(n/4) - 1
	if better == "higher" {
		rank = len(s) - 1 - rank
	}
	return s[rank]
}

// reduceTrials turns per-trial metric values into one value per
// metric: the good-side quartile over the trials that reported it.
func reduceTrials(trials []values, better map[string]string) values {
	byName := map[string][]float64{}
	for _, t := range trials {
		for name, v := range t {
			byName[name] = append(byName[name], v)
		}
	}
	out := values{}
	for name, vs := range byName {
		out[name] = goodQuartile(vs, better[name])
	}
	return out
}

// cpuTimes is the aggregate "cpu" line of /proc/stat in jiffies.
type cpuTimes struct {
	total, steal uint64
}

// parseProcStat extracts the aggregate cpu line. Fields are user nice
// system idle iowait irq softirq steal [guest guest_nice]; guest time is
// already inside user, so the total is the first eight. Kernels without
// a steal column (or a file without a cpu line) report steal 0.
func parseProcStat(data string) cpuTimes {
	for _, line := range strings.Split(data, "\n") {
		f := strings.Fields(line)
		if len(f) < 2 || f[0] != "cpu" {
			continue
		}
		var t cpuTimes
		for i, s := range f[1:] {
			if i >= 8 {
				break
			}
			v, err := strconv.ParseUint(s, 10, 64)
			if err != nil {
				return cpuTimes{}
			}
			t.total += v
			if i == 7 {
				t.steal = v
			}
		}
		return t
	}
	return cpuTimes{}
}

// readCPUTimes reads /proc/stat; a host without it (non-Linux) reads as
// zero steal, which disables the interference guard instead of failing.
func readCPUTimes() cpuTimes {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	return parseProcStat(string(data))
}

// stealShare is the fraction of all CPU time between two readings that
// the hypervisor gave to someone else.
func stealShare(before, after cpuTimes) float64 {
	if after.total <= before.total || after.steal < before.steal {
		return 0
	}
	return float64(after.steal-before.steal) / float64(after.total-before.total)
}

// processCPUNS is the process's user+system CPU time so far.
func processCPUNS() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// withinBound reports whether b agrees with a under a metric's bound:
// the relative difference |b−a|/|a| is at most bound, or the absolute
// difference at most floor (set-up times of a few milliseconds would
// otherwise fail on scheduler noise alone). A bound of 0 demands
// equality. rel is the signed relative difference, 0 when a is 0.
func withinBound(a, b, bound, floor float64) (rel float64, ok bool) {
	if a == b {
		return 0, true
	}
	if a != 0 {
		rel = (b - a) / math.Abs(a)
	}
	if math.Abs(b-a) <= floor {
		return rel, true
	}
	return rel, a != 0 && math.Abs(rel) <= bound
}

// hostSpeed times a fixed piece of pure CPU work on every CPU the
// workload may use at once — 128 passes of four independent
// multiply chains over 512 KiB each, three to four milliseconds — and
// returns passes per second, all of them together. It touches nothing
// of the program under test, so when it moves between two runs the
// host moved, not the code. The interference a shared VM suffers mostly
// does not show up as steal in /proc/stat: on the sizing host a
// neighbour on the sibling hardware thread cost the workloads a third
// of their speed for minutes with steal at 0. Hence four independent
// chains (a single dependent chain leaves the core's ports idle and a
// sibling takes nothing from it: such a kernel stayed flat while the
// workload lost 35%), and every CPU at once (at times the two vCPUs
// themselves were siblings of one core).
func hostSpeed(bufs [][]uint64) float64 {
	const passes = 128
	bufs = bufs[:runtime.GOMAXPROCS(0)]
	var wg sync.WaitGroup
	t0 := now()
	for _, buf := range bufs {
		wg.Add(1)
		go func(buf []uint64) {
			defer wg.Done()
			var a, b, c, d uint64
			for p := 0; p < passes; p++ {
				for i := 0; i+4 <= len(buf); i += 4 {
					a = (a ^ buf[i]) * 0x9E3779B97F4A7C15
					b = (b + buf[i+1]) * 0xC2B2AE3D27D4EB4F
					c = (c ^ buf[i+2]) * 0x165667B19E3779F9
					d = (d + buf[i+3]) * 0x27D4EB2F165667C5
				}
				buf[p] = a ^ b ^ c ^ d // keeps the chains live
			}
		}(buf)
	}
	wg.Wait()
	return float64(passes*len(bufs)) / (float64(now()-t0) / 1e9)
}

// newCalibration allocates hostSpeed's working sets, 512 KiB per CPU,
// and touches them so that the first measurement pays no page faults.
func newCalibration() [][]uint64 {
	bufs := make([][]uint64, runtime.NumCPU())
	for i := range bufs {
		bufs[i] = make([]uint64, 1<<16)
		for j := range bufs[i] {
			bufs[i][j] = uint64(j)
		}
	}
	return bufs
}
