package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the exact q-quantile of samples by the nearest-rank
// rule: the smallest sample with at least q·n samples at or below it.
// samples need not be sorted; it is not modified. An empty input has no
// quantile and returns NaN.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	return s[rank(q, len(s))-1]
}

// rank is the 1-based nearest rank of the q-quantile among n samples.
// The epsilon keeps q·n that should be whole (0.9·100) from rounding up.
func rank(q float64, n int) int {
	r := int(math.Ceil(q*float64(n) - 1e-9))
	if r < 1 {
		r = 1
	}
	if r > n {
		r = n
	}
	return r
}

// median is quantile(samples, 0.5).
func median(samples []float64) float64 { return quantile(samples, 0.5) }

// tailQuantile is quantile with the guard the benchmark reports under:
// a percentile is only meaningful with at least ten samples beyond it.
func tailQuantile(name string, samples []float64, q float64) (float64, error) {
	if beyond := len(samples) - rank(q, len(samples)); len(samples) == 0 || beyond < 10 {
		return 0, fmt.Errorf("%s: %d samples leave %d beyond the %g quantile; need 10",
			name, len(samples), beyond, q)
	}
	return quantile(samples, q), nil
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
}

func tvSeconds(tv syscall.Timeval) float64 {
	return float64(tv.Sec) + float64(tv.Usec)/1e6
}

// peakRSSMB reads VmHWM (the resident-set high-water mark) of this
// process from /proc/self/status, in MB (10^6 bytes).
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(fields) < 1 {
			break
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0, fmt.Errorf("VmHWM: %w", err)
		}
		return kb * 1024 / 1e6, nil
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("VmHWM missing from /proc/self/status")
}

// runtimeSample is a snapshot of the Go runtime counters the benchmark
// reports per layer: bytes allocated on the heap and CPU spent in GC.
type runtimeSample struct {
	allocBytes float64
	gcCPU      float64
}

var runtimeMetricNames = []string{"/gc/heap/allocs:bytes", "/cpu/classes/gc/total:cpu-seconds"}

func sampleRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return runtimeSample{allocBytes: sampleValue(s[0]), gcCPU: sampleValue(s[1])}
}

func sampleValue(s metrics.Sample) float64 {
	switch s.Value.Kind() {
	case metrics.KindUint64:
		return float64(s.Value.Uint64())
	case metrics.KindFloat64:
		return s.Value.Float64()
	}
	return 0
}

// phase measures wall and CPU time of one timed stretch of work.
type phase struct {
	start time.Time
	cpu   float64
}

func startPhase() phase { return phase{start: time.Now(), cpu: cpuSeconds()} }

func (p phase) end() (wall, cpu float64) {
	return time.Since(p.start).Seconds(), cpuSeconds() - p.cpu
}
