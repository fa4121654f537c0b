// Command tracegen generates a workload and prints its address-reuse
// characteristics, mirroring the paper's §5 "Address reuse
// characteristics" analysis. Use it to inspect how each synthetic trace
// reproduces the published reuse structure.
//
// Example:
//
//	tracegen -trace hadoop -vms 10240 -duration 15ms
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"switchv2p/internal/netaddr"
	"switchv2p/internal/simtime"
	"switchv2p/internal/trace"
	"switchv2p/internal/transport"
)

func main() {
	var (
		name     = flag.String("trace", "hadoop", "trace: hadoop, websearch, alibaba, microbursts, video, all")
		vms      = flag.Int("vms", 10240, "VM population")
		servers  = flag.Int("servers", 128, "physical servers (load calibration)")
		load     = flag.Float64("load", 0.30, "offered load fraction")
		duration = flag.Duration("duration", time.Millisecond, "traced interval (simulated)")
		maxFlows = flag.Int("maxflows", 0, "cap on generated flows")
		seed     = flag.Int64("seed", 1, "random seed")
		out      = flag.String("o", "", "also write the workload to this file (JSON lines)")
	)
	flag.Parse()

	var alloc netaddr.VIPAllocator
	vips := make([]netaddr.VIP, *vms)
	for i := range vips {
		vips[i] = alloc.Next()
	}
	cfg := trace.Config{
		VIPs:        vips,
		Servers:     *servers,
		HostLinkBps: 100e9,
		Load:        *load,
		Duration:    simtime.FromStd(*duration),
		MaxFlows:    *maxFlows,
		Seed:        *seed,
	}

	names := []string{*name}
	if *name == "all" {
		names = []string{"hadoop", "websearch", "alibaba", "microbursts", "video"}
	}
	for _, n := range names {
		gen := trace.Generators[n]
		if gen == nil {
			fmt.Fprintf(os.Stderr, "unknown trace %q\n", n)
			os.Exit(2)
		}
		w, err := gen(cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if *out != "" && *name != "all" {
			f, err := os.Create(*out)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := w.Write(f); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("wrote %s\n", *out)
		}
		s := trace.Analyze(w)
		tcp, udp := 0, 0
		for i := range w.Flows {
			if w.Flows[i].Proto == transport.TCP {
				tcp++
			} else {
				udp++
			}
		}
		fmt.Printf("%-12s flows=%d (tcp=%d udp=%d) bytes=%dMB offeredLoad=%.2f\n",
			n, s.Flows, tcp, udp, s.TotalBytes>>20,
			trace.OfferedLoad(w, cfg.Servers, cfg.HostLinkBps, cfg.Duration))
		fmt.Printf("             destinations: distinct=%d >=2flows=%d >=10flows=%d meanReuseDist=%v\n",
			s.DistinctDests, s.DestsGE2, s.DestsGE10, s.MeanReuseDistance)
	}
}
