package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// cpuLayers are the repository modules a CPU sample can be charged to,
// besides the catch-alls. A sample goes to the innermost frame of a
// repo/internal/<pkg> function on its stack: the layer's self time,
// including the runtime work (allocation, channel handoff) it called.
var cpuLayers = []string{
	"simclock", "fleet", "fleetobs", "engine", "core", "world", "planner", "model",
	"stats", "faas", "kvstore", "objstore", "netsim", "antientropy", "telemetry",
	"chaos", "pricing", "simrand",
}

// cpuShares attributes a pprof CPU profile's samples to layers and
// returns each layer's share of all sampled CPU time, keyed
// "<layer>.cpu_share". Besides cpuLayers: "other" (remaining internal
// packages), "facade" (the root repro package), "bench" (this
// benchmark), and, for samples with no repo frame, "runtime.gc_cpu_share"
// (GC workers) and "runtime.other_cpu_share" (everything else). The
// shares sum to 1.
func cpuShares(profile []byte) (map[string]float64, error) {
	samples, err := parseCPUProfile(profile)
	if err != nil {
		return nil, err
	}
	known := make(map[string]bool, len(cpuLayers))
	for _, l := range cpuLayers {
		known[l] = true
	}
	totals := make(map[string]float64)
	var sum float64
	for _, s := range samples {
		layer := classify(s.funcs, known)
		totals[layer] += float64(s.value)
		sum += float64(s.value)
	}
	out := make(map[string]float64)
	for _, l := range append(cpuLayers, "other", "facade", "bench", "runtime.gc", "runtime.other") {
		name := l + ".cpu_share"
		if strings.HasPrefix(l, "runtime.") {
			name = l + "_cpu_share"
		}
		out[name] = 0
		if sum > 0 {
			out[name] = totals[l] / sum
		}
	}
	return out, nil
}

// classify names the layer of one stack, leaf first.
func classify(funcs []string, known map[string]bool) string {
	for _, f := range funcs {
		switch {
		case strings.HasPrefix(f, "repro/internal/"):
			pkg := strings.TrimPrefix(f, "repro/internal/")
			if i := strings.IndexAny(pkg, "./"); i >= 0 {
				pkg = pkg[:i]
			}
			if known[pkg] {
				return pkg
			}
			return "other"
		case strings.HasPrefix(f, "repro."):
			return "facade"
		case strings.HasPrefix(f, "main."), strings.HasPrefix(f, "repro/perfbench."):
			return "bench"
		}
	}
	for _, f := range funcs {
		if strings.HasPrefix(f, "runtime.gc") || f == "runtime.bgsweep" || f == "runtime.bgscavenge" {
			return "runtime.gc"
		}
	}
	return "runtime.other"
}

// cpuSample is one profile sample: its stack as function names, leaf
// first (inlined frames expanded), and its CPU nanoseconds.
type cpuSample struct {
	funcs []string
	value int64
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes, keeping only what attribution needs: samples, locations,
// functions and the string table.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = make(map[uint64][]uint64) // location id -> function ids, innermost first
		funcNames = make(map[uint64]int64)    // function id -> string index
		strs      []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				var err error
				switch f {
				case 1:
					s.locs, err = appendUints(s.locs, v, b)
				case 2:
					var vs []uint64
					vs, err = appendUints(nil, v, b)
					for _, x := range vs {
						s.values = append(s.values, int64(x))
					}
				}
				return err
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}

	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{value: s.values[len(s.values)-1]}
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if i := funcNames[fn]; i >= 0 && int(i) < len(strs) {
					cs.funcs = append(cs.funcs, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value or its length-delimited bytes.
func eachField(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad field key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var data []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errors.New("bad varint")
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errors.New("short fixed64")
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("bad length")
			}
			data = b[n : n+int(l)]
			b = b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errors.New("short fixed32")
			}
			b = b[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, data); err != nil {
			return err
		}
	}
	return nil
}

// appendUints appends a repeated uint64 field, packed (data) or not (v).
func appendUints(dst []uint64, v uint64, data []byte) ([]uint64, error) {
	if data == nil {
		return append(dst, v), nil
	}
	for len(data) > 0 {
		x, n := uvarint(data)
		if n <= 0 {
			return nil, errors.New("bad packed varint")
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst, nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i, c := range b {
		if i == 10 {
			return 0, -1
		}
		x |= uint64(c&0x7f) << (7 * i)
		if c < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
