package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// layers are the repository modules per-layer host metrics are attributed
// to, plus go_runtime (GC, map internals, scheduler) and other (the
// benchmark itself and repo packages outside the list).
var layers = []string{
	"sim", "noc", "monitor", "accel", "apps", "core", "memseg", "netstack",
	"netsim", "fabric", "cluster", "load", "obs", "trace", "msg", "cap",
	"fault", "go_runtime", "other",
}

const repoPrefix = "apiary/internal/"

// funcPackage extracts the import path from a Go symbol name such as
// "apiary/internal/noc.(*Network).Tick" or "runtime.mallocgc".
func funcPackage(name string) string {
	slash := strings.LastIndexByte(name, '/')
	if dot := strings.IndexByte(name[slash+1:], '.'); dot >= 0 {
		return name[:slash+1+dot]
	}
	return name
}

func isRuntime(pkg string) bool {
	return pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/")
}

// bucket attributes a stack, leaf first, to one layer. A runtime leaf is
// go_runtime when skipRuntime is false (CPU self time: map iteration and GC
// are the runtime's); an allocation skips runtime frames to reach the code
// that asked for memory. Other standard-library frames are charged to the
// nearest repository caller.
func bucket(stack []string, skipRuntime bool) string {
	for i, fn := range stack {
		pkg := funcPackage(fn)
		if isRuntime(pkg) {
			if i == 0 && !skipRuntime {
				return "go_runtime"
			}
			continue
		}
		if rest, ok := strings.CutPrefix(pkg, repoPrefix); ok {
			name, _, _ := strings.Cut(rest, "/")
			for _, l := range layers {
				if l == name {
					return l
				}
			}
			return "other"
		}
	}
	if len(stack) > 0 && isRuntime(funcPackage(stack[0])) {
		return "go_runtime" // runtime work with no repository caller
	}
	return "other"
}

// cpuSample is one CPU-profile sample: its stack as function names, leaf
// first, and how many profiling ticks landed on it.
type cpuSample struct {
	stack []string
	count int64
}

// parseCPUProfile decodes the gzipped profile.proto runtime/pprof writes,
// keeping only what attribution needs: each sample's tick count and its
// stack of function names with inlined frames expanded.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		locs  []uint64
		value int64
	}
	var (
		samples []sample
		locFns  = map[uint64][]uint64{} // location id -> function ids, leaf first
		fnName  = map[uint64]int64{}    // function id -> string index
		strs    []string
	)
	err = eachField(raw, func(num int, wt int, v uint64, b []byte) error {
		switch {
		case num == 2 && wt == 2: // Sample
			var s sample
			var vals []uint64 // sample count, then CPU nanoseconds
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch num {
				case 1:
					s.locs = appendVarints(s.locs, wt, v, b)
				case 2:
					vals = appendVarints(vals, wt, v, b)
				}
				return nil
			})
			if err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[0])
			}
			samples = append(samples, s)
		case num == 4 && wt == 2: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(num, wt int, v uint64, b []byte) error {
				switch {
				case num == 1:
					id = v
				case num == 4 && wt == 2: // Line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			if err != nil {
				return err
			}
			locFns[id] = fns
		case num == 5 && wt == 2: // Function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			if err != nil {
				return err
			}
			fnName[id] = name
		case num == 6 && wt == 2: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		cs := cpuSample{count: s.value}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				idx, ok := fnName[f]
				if !ok || idx < 0 || int(idx) >= len(strs) {
					return nil, fmt.Errorf("profile: location %d names unknown function %d", l, f)
				}
				cs.stack = append(cs.stack, strs[idx])
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// eachField walks one protobuf message, calling fn with each field's
// number, wire type and either its varint value or its bytes.
func eachField(b []byte, fn func(num, wt int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		num, wt := int(key>>3), int(key&7)
		var v uint64
		var body []byte
		switch wt {
		case 0:
			if v, n = binary.Uvarint(b); n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			v, b = binary.LittleEndian.Uint64(b), b[8:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			v, b = uint64(binary.LittleEndian.Uint32(b)), b[4:]
		default:
			return errProto
		}
		if err := fn(num, wt, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field, packed (wire type 2) or
// not.
func appendVarints(dst []uint64, wt int, v uint64, b []byte) []uint64 {
	if wt != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}
