// Package prof gives a command the two profiling flags of the Go toolchain,
// -cpuprofile and -memprofile, written through runtime/pprof so that
// `go tool pprof <binary> <file>` reads them.
package prof

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
)

// Flags holds the two file names. Register it before flag.Parse.
type Flags struct {
	cpu, mem string
}

// Register declares -cpuprofile and -memprofile on the command line.
func Register() *Flags {
	f := &Flags{}
	flag.StringVar(&f.cpu, "cpuprofile", "", "write a CPU profile of the whole run to this file (go tool pprof)")
	flag.StringVar(&f.mem, "memprofile", "", "write an allocation profile, taken when the run ends, to this file (go tool pprof -sample_index=alloc_space)")
	return f
}

// Start begins the CPU profile, if one was asked for. The returned stop
// ends it and writes the allocation profile; defer it in main — it runs
// when main returns, not on os.Exit, so a run that fails leaves no profile
// behind. Problems with the files are reported on stderr and do not fail
// the run they observe.
func (f *Flags) Start() (stop func()) {
	var cpu *os.File
	if f.cpu != "" {
		var err error
		if cpu, err = os.Create(f.cpu); err == nil {
			err = pprof.StartCPUProfile(cpu)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			cpu = nil
		}
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			if err := cpu.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "cpuprofile:", err)
			}
		}
		if f.mem == "" {
			return
		}
		out, err := os.Create(f.mem)
		if err == nil {
			runtime.GC() // so that inuse_* is what the run still holds
			err = pprof.WriteHeapProfile(out)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "memprofile:", err)
		}
	}
}
