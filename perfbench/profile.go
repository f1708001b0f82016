package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// A CPU profile from runtime/pprof is a gzipped profile.proto message.
// The standard library writes it but exposes no reader, so this file
// decodes just the fields attribution needs: each sample's stack of
// location ids and its values, each location's (possibly inlined)
// function ids, each function's name, and the string table.

// profSample is one stack, leaf first, as function names (inlined
// callees come before the function they were inlined into), and the
// CPU time its samples stand for.
type profSample struct {
	Stack []string
	Nanos int64
}

// parseProfile decodes a gzipped CPU profile into its samples.
func parseProfile(data []byte) ([]profSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type rawSample struct {
		locs []uint64
		vals []int64
	}
	var (
		samples []rawSample
		locFns  = map[uint64][]uint64{} // location id → function ids, innermost first
		fnName  = map[uint64]int64{}    // function id → string index
		strs    []string
	)
	err = protoFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s rawSample
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, b)
				case 2:
					for _, x := range appendVarints(nil, v, b) {
						s.vals = append(s.vals, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := protoFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	// A CPU profile's sample values are (samples, cpu nanoseconds).
	var out []profSample
	for _, s := range samples {
		if len(s.vals) != 2 {
			return nil, fmt.Errorf("profile: sample has %d values, want 2 (not a CPU profile)", len(s.vals))
		}
		ps := profSample{Nanos: s.vals[1]}
		for _, l := range s.locs {
			for _, f := range locFns[l] {
				if i := fnName[f]; i >= 0 && int(i) < len(strs) {
					ps.Stack = append(ps.Stack, strs[i])
				}
			}
		}
		out = append(out, ps)
	}
	return out, nil
}

var errProto = errors.New("profile: malformed protobuf")

// protoFields walks the fields of one protobuf message, calling fn with
// the field number and either the varint value (wire type 0) or the
// bytes (wire type 2). Fixed-width fields are skipped.
func protoFields(b []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(b) > 0 {
		key, n := uvarint(b)
		if n <= 0 {
			return errProto
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var body []byte
		switch wire {
		case 0:
			v, n = uvarint(b)
			if n <= 0 {
				return errProto
			}
			b = b[n:]
		case 1:
			if len(b) < 8 {
				return errProto
			}
			b = b[8:]
			continue
		case 2:
			l, n := uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errProto
			}
			body, b = b[n:n+int(l)], b[n+int(l):]
		case 5:
			if len(b) < 4 {
				return errProto
			}
			b = b[4:]
			continue
		default:
			return errProto
		}
		if err := fn(field, v, body); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values: one value
// when unpacked (b nil), every varint in b when packed.
func appendVarints(dst []uint64, v uint64, b []byte) []uint64 {
	if b == nil {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// Attribution. Each sample is charged to one layer: the innermost frame
// that belongs to one of the program's packages names it, so standard
// library and runtime callees count against their caller in the
// program. The benchmark's own frames (package main) are "bench".
// Samples with no such frame are "gc" when they come from the garbage
// collector's background workers and "other" otherwise. With
// splitSyscall set (the serve workload), a sample whose stack is
// inside a system call is "syscall" before any of that applies.
const repoPrefix = "repro/internal/"

// gcRoots are the runtime's background collector goroutines.
var gcRoots = []string{"runtime.gcBgMarkWorker", "runtime.bgsweep", "runtime.bgscavenge"}

// syscallFrames are the functions a stack is inside while the thread is
// in the kernel.
var syscallFrames = []string{
	"syscall.Syscall", "syscall.Syscall6", "syscall.RawSyscall", "syscall.RawSyscall6",
	"syscall.rawSyscallNoError", "syscall.rawVforkSyscall",
	"internal/runtime/syscall.Syscall6",
	"runtime.futex", "runtime.epollwait", "runtime.usleep", "runtime.write1", "runtime.read",
	"runtime.nanosleep", "runtime.osyield",
}

// layerOf returns the layer a stack (leaf first) is charged to.
func layerOf(stack []string, splitSyscall bool) string {
	if splitSyscall {
		for _, f := range stack {
			for _, s := range syscallFrames {
				if f == s {
					return "syscall"
				}
			}
		}
	}
	for _, f := range stack {
		if rest, ok := strings.CutPrefix(f, repoPrefix); ok {
			if i := strings.IndexAny(rest, "./"); i > 0 {
				return rest[:i]
			}
		}
		if strings.HasPrefix(f, "main.") {
			return "bench"
		}
	}
	for _, f := range stack {
		for _, g := range gcRoots {
			if f == g {
				return "gc"
			}
		}
	}
	return "other"
}

// subLayer names the part of layer a sample charged to it was spent
// in: "malloc" when the allocator is on the stack, "sort" when a sort
// is, looking only at the frames below the first frame of another of
// the program's packages. Empty otherwise.
func subLayer(stack []string, layer string) string {
	own := repoPrefix + layer + "."
	for _, f := range stack {
		switch {
		case strings.HasPrefix(f, own):
		case strings.HasPrefix(f, repoPrefix):
			return ""
		case f == "runtime.mallocgc" || f == "runtime.newobject":
			return "malloc"
		case strings.HasPrefix(f, "sort.") || strings.HasPrefix(f, "slices.Sort"):
			return "sort"
		}
	}
	return ""
}

// cpuByLayer sums samples per layer in seconds of CPU. For each layer
// named in splits, that layer's samples are also summed under
// "<layer>_<sub>" for each subLayer found.
func cpuByLayer(samples []profSample, splitSyscall bool, splits ...string) map[string]float64 {
	out := map[string]float64{}
	for _, s := range samples {
		sec := float64(s.Nanos) / 1e9
		l := layerOf(s.Stack, splitSyscall)
		out[l] += sec
		for _, sp := range splits {
			if sp != l {
				continue
			}
			if sub := subLayer(s.Stack, l); sub != "" {
				out[l+"_"+sub] += sec
			}
		}
	}
	return out
}
