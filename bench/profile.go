package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"strings"
)

// cpuSample is one stack of a CPU profile, leaf first, with the CPU time
// the profiler charged to it.
type cpuSample struct {
	stack []string
	ns    int64
}

// walkProto calls fn for each field of a protobuf message: varint fields
// arrive in v, length-delimited ones in data.
func walkProto(b []byte, fn func(field int, v uint64, data []byte) error) error {
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		b = b[n:]
		switch key & 7 {
		case 0:
			v, n := binary.Uvarint(b)
			if n <= 0 {
				return errors.New("profile: bad varint")
			}
			b = b[n:]
			if err := fn(int(key>>3), v, nil); err != nil {
				return err
			}
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("profile: bad length")
			}
			if err := fn(int(key>>3), 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("profile: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("profile: short fixed32")
			}
			b = b[4:]
		default:
			return errors.New("profile: unsupported wire type")
		}
	}
	return nil
}

// appendInts decodes a repeated integer field, packed or not.
func appendInts(dst []uint64, v uint64, data []byte) []uint64 {
	if data == nil {
		return append(dst, v)
	}
	for len(data) > 0 {
		x, n := binary.Uvarint(data)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		data = data[n:]
	}
	return dst
}

// parseCPUProfile decodes the gzipped profile.proto that runtime/pprof
// writes: just the messages needed to name each sample's frames
// (Profile.sample/location/function/string_table). The last sample value
// is the CPU time in nanoseconds.
func parseCPUProfile(gz []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type rawSample struct{ locs, values []uint64 }
	var (
		samples []rawSample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost inlined first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	err = walkProto(raw, func(field int, _ uint64, data []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := walkProto(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					s.locs = appendInts(s.locs, v, d)
				case 2:
					s.values = appendInts(s.values, v, d)
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := walkProto(data, func(f int, v uint64, d []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return walkProto(d, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFns[id] = fns
			return err
		case 5: // Function
			var id, name uint64
			err := walkProto(data, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			})
			fnName[id] = name
			return err
		case 6:
			strs = append(strs, string(data))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		if len(s.values) == 0 {
			continue
		}
		cs := cpuSample{ns: int64(s.values[len(s.values)-1])}
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// selfTimeMetrics are the layers CPU samples are attributed to, each named
// by its metric: CPU seconds of self time per traced run.
var selfTimeMetrics = []string{
	"eventq.self_s", "simnet.link_self_s", "simnet.fwd_self_s", "simnet.shard_self_s",
	"core.self_s", "baselines.self_s", "transport.self_s", "packet.self_s", "topology.self_s",
	"netaddr.self_s", "vnet.self_s", "faults.self_s", "scenario.self_s", "telemetry.self_s",
	"runtime.gc_self_s", "runtime.malloc_self_s", "runtime.sched_self_s", "runtime.other_self_s",
	"other.self_s",
}

const modulePrefix = "switchv2p/internal/"

// layerOf attributes a sample's flat time to a layer by its leaf
// function: this repo's packages by package path (simnet split by
// receiver type), the Go runtime by what the stack is doing.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "other.self_s"
	}
	leaf := stack[0]
	if rest, ok := strings.CutPrefix(leaf, modulePrefix); ok {
		pkg, sym, _ := strings.Cut(rest, ".")
		switch pkg {
		case "simnet":
			switch {
			case strings.HasPrefix(sym, "(*link)."), strings.HasPrefix(sym, "(*linkEvent)."):
				return "simnet.link_self_s"
			case strings.HasPrefix(sym, "(*sharding)."), strings.HasPrefix(sym, "(*crossEvent)."),
				strings.HasPrefix(sym, "(*Engine).runSharded"):
				return "simnet.shard_self_s"
			}
			return "simnet.fwd_self_s"
		case "eventq", "core", "baselines", "transport", "packet", "topology",
			"netaddr", "vnet", "faults", "scenario", "telemetry":
			return pkg + ".self_s"
		}
		return "other.self_s"
	}
	switch {
	case strings.HasPrefix(leaf, "runtime."), strings.HasPrefix(leaf, "internal/runtime/"),
		strings.HasPrefix(leaf, "internal/bytealg."), strings.HasPrefix(leaf, "internal/abi."),
		strings.HasPrefix(leaf, "sync."), strings.HasPrefix(leaf, "sync/atomic."),
		strings.HasPrefix(leaf, "internal/sync."):
		return runtimeLayer(stack)
	}
	return "other.self_s"
}

// runtimeLayer splits runtime time by the activity the stack shows:
// collection (background workers, assists, sweeping) before allocation
// before scheduling and waiting; the rest is runtime.other.
func runtimeLayer(stack []string) string {
	has := func(names ...string) bool {
		for _, f := range stack {
			for _, n := range names {
				if strings.HasPrefix(f, n) {
					return true
				}
			}
		}
		return false
	}
	switch {
	case has("runtime.gcBgMarkWorker", "runtime.gcAssistAlloc", "runtime.gcDrain", "runtime.gcStart",
		"runtime.gcMark", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone",
		"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.GC", "runtime.wbBufFlush"):
		return "runtime.gc_self_s"
	case has("runtime.mallocgc", "runtime.newobject", "runtime.growslice", "runtime.makeslice",
		"runtime.newarray"):
		return "runtime.malloc_self_s"
	case has("runtime.schedule", "runtime.findRunnable", "runtime.park_m", "runtime.gopark",
		"runtime.futex", "runtime.notesleep", "runtime.notewakeup", "runtime.semacquire",
		"runtime.semrelease", "runtime.chansend", "runtime.chanrecv", "runtime.selectgo",
		"runtime.goready", "runtime.wakep", "runtime.startm", "runtime.stopm", "runtime.mcall",
		"runtime.gosched", "runtime.goschedImpl", "runtime.usleep", "runtime.osyield",
		"runtime.procyield", "runtime.mstart", "runtime.sysmon", "sync."):
		return "runtime.sched_self_s"
	}
	return "runtime.other_self_s"
}

// attribute sums each sample's time into its layer, in nanoseconds.
func attribute(samples []cpuSample, into map[string]int64) (total int64) {
	for _, s := range samples {
		into[layerOf(s.stack)] += s.ns
		total += s.ns
	}
	return total
}
