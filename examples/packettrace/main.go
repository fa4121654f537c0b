// Packettrace: capture the life of packets with the built-in pcap-style
// tracer. Follow one flow's first packet through the network under
// NoCache (via the gateway) and under SwitchV2P with a warm cache (short
// path), then dump both traces tcpdump-style and save a binary capture.
//
// This example uses internal packages directly (it is part of the
// module) to reach the tracing tap below the public façade.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"

	"switchv2p/internal/baselines"
	"switchv2p/internal/core"
	"switchv2p/internal/packet"
	"switchv2p/internal/ptrace"
	"switchv2p/internal/simnet"
	"switchv2p/internal/simtime"
	"switchv2p/internal/topology"
	"switchv2p/internal/vnet"
)

func run(label string, scheme func(*topology.Topology) simnet.Scheme, warm bool) {
	topo, err := topology.New(topology.FT8())
	if err != nil {
		log.Fatal(err)
	}
	net := vnet.New(topo)
	vips := net.PlaceRoundRobin(256)
	e := simnet.New(topo, net, scheme(topo), simnet.DefaultConfig())
	src, dst := vips[0], vips[9]
	srcHost, _ := net.HostOf(src)

	if warm {
		// Prime the caches with one packet, untraced.
		e.HostSend(srcHost, packet.NewData(7, 0, 100, src, dst, 0))
		e.Run(simtime.Never)
	}

	tr := ptrace.New(e, ptrace.Options{FlowID: 1})
	e.HostSend(srcHost, packet.NewData(1, 0, 1000, src, dst, 0))
	e.Run(simtime.Never)

	fmt.Printf("--- %s: %d observation points ---\n", label, len(tr.Records))
	if err := tr.Dump(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// Save the binary capture and prove it round-trips.
	path := filepath.Join(os.TempDir(), "switchv2p-"+label+".trace")
	f, err := os.Create(path)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := tr.WriteTo(f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	g, err := os.Open(path)
	if err != nil {
		log.Fatal(err)
	}
	records, err := ptrace.Read(g)
	g.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("saved %s (%d records, verified round trip)\n\n", path, len(records))
}

func main() {
	run("nocache", func(*topology.Topology) simnet.Scheme { return baselines.NewNoCache() }, false)
	run("switchv2p-warm", func(t *topology.Topology) simnet.Scheme {
		opts := core.DefaultOptions(1024)
		opts.PLearn = 1.0
		return core.New(t, opts)
	}, true)
	fmt.Println("Compare the two dumps: NoCache detours through a gateway")
	fmt.Println("host; warm SwitchV2P resolves at the sender's own ToR and")
	fmt.Println("takes the direct path.")
}
