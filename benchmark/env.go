package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// envRecord is where a number came from: without it a snapshot from one
// machine cannot be told from a regression on another.
type envRecord struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUModel   string `json:"cpu_model"`
	Commit     string `json:"commit,omitempty"`
	Seed       int64  `json:"seed"`

	// The calibration loop before and after the run; drift is
	// after/before - 1.
	CalibBeforeNS  float64 `json:"calib_before_ns"`
	CalibAfterNS   float64 `json:"calib_after_ns"`
	CalibDriftFrac float64 `json:"calib_drift_frac"`
}

func readEnv(seed int64) envRecord {
	return envRecord{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		Commit:     headCommit(".."),
		Seed:       seed,
	}
}

func (e envRecord) print(w io.Writer) {
	fmt.Fprintf(w, "adbench: %s %s/%s, nproc %d, GOMAXPROCS %d, cpu %q, commit %q, seed %d, calibration %.0f ns\n",
		e.GoVersion, e.GOOS, e.GOARCH, e.NumCPU, e.GOMAXPROCS, e.CPUModel, e.Commit, e.Seed, e.CalibBeforeNS)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// headCommit reads the checked-out commit from root/.git without
// running git; a checkout that is not a repository (the driver's) or a
// packed ref yields "".
func headCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	data, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref)))
	if err != nil {
		return ""
	}
	return strings.TrimSpace(string(data))
}

const (
	calibBytes = 16 << 20
	calibRuns  = 5
)

var calibSink uint64

// calibrate times a fixed loop — FNV-1a over 16 MiB, median of 5 — so
// two documents can be compared knowing how fast each machine was, and
// one run knows whether its machine slowed down underneath it.
func calibrate() float64 {
	buf := make([]byte, calibBytes)
	for i := range buf {
		buf[i] = byte(i * 131)
	}
	times := make([]float64, calibRuns)
	for r := range times {
		start := time.Now()
		h := uint64(14695981039346656037)
		for _, b := range buf {
			h ^= uint64(b)
			h *= 1099511628211
		}
		times[r] = float64(time.Since(start).Nanoseconds())
		calibSink += h
	}
	return median(times)
}

// peakRSSMB is the process's VmHWM in MiB (0 where /proc is missing).
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			fields := strings.Fields(rest)
			if len(fields) >= 1 {
				kb, err := strconv.ParseFloat(fields[0], 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	return 0
}
