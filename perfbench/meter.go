package main

import (
	"bufio"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"syscall"
	"time"
)

// usage is what one measured window cost the whole process.
type usage struct {
	wall       time.Duration
	cpu        time.Duration // user + system, from getrusage
	allocBytes uint64
	gcCycles   uint64
	gcCPU      float64 // runtime estimate, seconds
	totalCPU   float64 // runtime estimate, seconds
}

func (u *usage) add(o usage) {
	u.wall += o.wall
	u.cpu += o.cpu
	u.allocBytes += o.allocBytes
	u.gcCycles += o.gcCycles
	u.gcCPU += o.gcCPU
	u.totalCPU += o.totalCPU
}

var meterKeys = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// meter marks the start of a measured window.
type meter struct {
	wall    time.Time
	cpu     time.Duration
	samples []metrics.Sample
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func readRuntime() []metrics.Sample {
	s := make([]metrics.Sample, len(meterKeys))
	for i, k := range meterKeys {
		s[i].Name = k
	}
	metrics.Read(s)
	return s
}

func startMeter() meter {
	return meter{wall: time.Now(), cpu: processCPU(), samples: readRuntime()}
}

func (m meter) stop() usage {
	end := readRuntime()
	u := usage{wall: time.Since(m.wall), cpu: processCPU() - m.cpu}
	u.allocBytes = end[0].Value.Uint64() - m.samples[0].Value.Uint64()
	u.gcCycles = end[1].Value.Uint64() - m.samples[1].Value.Uint64()
	u.gcCPU = end[2].Value.Float64() - m.samples[2].Value.Float64()
	u.totalCPU = end[3].Value.Float64() - m.samples[3].Value.Float64()
	return u
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; 0 for no samples. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[lo]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// host identifies the machine a result was measured on, so that numbers
// from different machines are never compared.
type host struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	GoVersion  string `json:"go_version"`
}

func fingerprint() host {
	return host{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GoVersion:  runtime.Version(),
	}
}

// cpuModel reads the processor name from /proc/cpuinfo where it exists.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		k, v, ok := strings.Cut(sc.Text(), ":")
		if ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
