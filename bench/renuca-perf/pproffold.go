package main

import (
	"fmt"
	"os/exec"
	"strconv"
	"strings"
)

// profLayers are the buckets the profile fold reports: the simulator
// packages a layer metric names, the Go runtime, and everything else
// (stats, energy, core, the standard library, this command).
var profLayers = []string{
	"trace", "cpu", "predictor", "sim", "tlb", "cache", "nuca", "coherence",
	"noc", "dram", "rram", "runtime", "other",
}

// layerOf maps a function's package path to its profLayers bucket.
func layerOf(pkg string) string {
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime"
	}
	if name, ok := strings.CutPrefix(pkg, "repro/internal/"); ok {
		for _, l := range profLayers[:len(profLayers)-2] {
			if name == l {
				return l
			}
		}
	}
	return "other"
}

// packageOf returns the package path of a symbol name such as
// "repro/internal/sim.(*System).walk".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/') + 1
	if dot := strings.IndexByte(fn[slash:], '.'); dot >= 0 {
		return fn[:slash+dot]
	}
	return fn
}

// foldProfile lists the CPU profile at path with `go tool pprof -top`,
// keeping only the samples labelled key=value, and sums each function's
// flat sample count (its own samples, the innermost inlined frame's for
// inlined code) into the function's profLayers bucket. It also returns the
// total number of samples folded.
func foldProfile(path, key, value string) (map[string]int64, int64, error) {
	out, err := exec.Command("go", "tool", "pprof", "-top", "-nodecount=0", "-nodefraction=0",
		"-sample_index=samples", "-tagfocus="+key+"="+value, path).Output()
	if err != nil {
		return nil, 0, fmt.Errorf("go tool pprof: %w", err)
	}
	byLayer := map[string]int64{}
	var total int64
	// Rows read "flat flat% sum% cum cum% function [(inline)]"; the header
	// lines do not start with a count.
	for _, line := range strings.Split(string(out), "\n") {
		f := strings.Fields(line)
		if len(f) < 6 {
			continue
		}
		n, err := strconv.ParseInt(f[0], 10, 64)
		if err != nil {
			continue
		}
		byLayer[layerOf(packageOf(f[5]))] += n
		total += n
	}
	return byLayer, total, nil
}
