// Command switchv2p-sim runs a single simulation and prints its report:
// one scheme, one trace, one topology, one cache size.
//
// Examples:
//
//	switchv2p-sim -scheme switchv2p -trace hadoop -cache 0.5
//	switchv2p-sim -scheme nocache -trace websearch -duration 2ms
//	switchv2p-sim -topo ft16 -trace alibaba -vms 100000 -maxflows 20000
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"switchv2p/internal/faults"
	"switchv2p/internal/harness"
	"switchv2p/internal/prof"
	"switchv2p/internal/simtime"
	"switchv2p/internal/telemetry"
	"switchv2p/internal/topology"
	"switchv2p/internal/trace"
)

func main() {
	var (
		scheme   = flag.String("scheme", "switchv2p", "scheme: "+strings.Join(harness.AllSchemes, ", "))
		traceN   = flag.String("trace", "hadoop", "trace: hadoop, websearch, alibaba, microbursts, video")
		topoName = flag.String("topo", "ft8", "topology: ft8 | ft16")
		cache    = flag.Float64("cache", 0.5, "aggregate cache size as a fraction of the VIP space")
		vms      = flag.Int("vms", 10240, "number of VMs")
		load     = flag.Float64("load", 0.30, "offered load fraction of host capacity")
		duration = flag.Duration("duration", time.Millisecond, "traced interval (simulated)")
		maxFlows = flag.Int("maxflows", 0, "cap on generated flows (0 = uncapped)")
		gateways = flag.Int("gateways", 0, "restrict to N gateways (0 = all)")
		seed     = flag.Int64("seed", 1, "random seed")
		wlFile   = flag.String("workload", "", "replay a workload file (from tracegen -o) instead of generating")

		shards = flag.Int("shards", 0, "run on the sharded deterministic engine with N workers (0 = serial; errors if the scheme does not support it)")

		telem         = flag.Bool("telemetry", false, "collect time-series telemetry and engine profile")
		telemOut      = flag.String("telemetry-out", "", "write telemetry to this file (.json or .csv); implies -telemetry")
		telemInterval = flag.Duration("telemetry-interval", 0, "telemetry sampling period (simulated; 0 = default)")

		// Fault injection (internal/faults). Times are simulated.
		faultSwitch    = flag.Int("fault-switch", -1, "fail this switch index (-1 = none)")
		faultSwitchAt  = flag.Duration("fault-switch-at", 0, "simulated time of the switch failure")
		faultSwitchRec = flag.Duration("fault-switch-recover", 0, "simulated time of the switch recovery (0 = never)")
		faultGateway   = flag.Int("fault-gateway", -1, "outage the gateway instance on this host index (-1 = none)")
		faultGwAt      = flag.Duration("fault-gateway-at", 0, "simulated time of the gateway outage")
		faultGwRec     = flag.Duration("fault-gateway-recover", 0, "simulated time of the gateway recovery (0 = never)")
		faultLink      = flag.String("fault-link", "", "fail this link, e.g. s3-s10 or h5-s0 (sN = switch, hN = host)")
		faultLinkAt    = flag.Duration("fault-link-at", 0, "simulated time of the link failure")
		faultLinkRec   = flag.Duration("fault-link-recover", 0, "simulated time of the link recovery (0 = never)")
		faultLoss      = flag.Float64("fault-loss", 0, "loss probability for the -fault-loss-link window (0 = none)")
		faultLossLink  = flag.String("fault-loss-link", "", "link for the loss window, same syntax as -fault-link")
		faultLossAt    = flag.Duration("fault-loss-at", 0, "simulated time the loss window opens")
		faultLossEnd   = flag.Duration("fault-loss-end", 0, "simulated time the loss window closes (0 = never)")
		faultLossSeed  = flag.Int64("fault-loss-seed", 0, "seed for the loss-window PRNG (0 = 1)")
		faultMTBF      = flag.Duration("fault-mtbf", 0, "random switch-failure model: mean time between failures (0 = off)")
		faultMTTR      = flag.Duration("fault-mttr", 0, "random switch-failure model: mean time to recovery")
		faultSeed      = flag.Int64("fault-seed", 0, "seed for the random switch-failure model (0 = 1)")

		profiles = prof.Register()
	)
	flag.Parse()
	defer profiles.Start()()

	var workload *trace.Workload
	if *wlFile != "" {
		f, err := os.Open(*wlFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		workload, err = trace.ReadWorkload(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}

	cfg := harness.Config{
		Workload:       workload,
		VMs:            *vms,
		Scheme:         *scheme,
		TraceName:      *traceN,
		Load:           *load,
		Duration:       simtime.FromStd(*duration),
		MaxFlows:       *maxFlows,
		CacheFraction:  *cache,
		ActiveGateways: *gateways,
		Seed:           *seed,
		Shards:         *shards,
	}
	if *telem || *telemOut != "" {
		cfg.Telemetry = &telemetry.Options{Interval: simtime.FromStd(*telemInterval)}
	}

	fc := &faults.Config{LossSeed: *faultLossSeed}
	at := func(d time.Duration) simtime.Time { return simtime.Time(0).Add(simtime.FromStd(d)) }
	if *faultSwitch >= 0 {
		fc.Schedule = append(fc.Schedule, faults.Event{
			At: at(*faultSwitchAt), Kind: faults.SwitchFail, Switch: int32(*faultSwitch)})
		if *faultSwitchRec > 0 {
			fc.Schedule = append(fc.Schedule, faults.Event{
				At: at(*faultSwitchRec), Kind: faults.SwitchRecover, Switch: int32(*faultSwitch)})
		}
	}
	if *faultGateway >= 0 {
		fc.Schedule = append(fc.Schedule, faults.Event{
			At: at(*faultGwAt), Kind: faults.GatewayOutage, Gateway: int32(*faultGateway)})
		if *faultGwRec > 0 {
			fc.Schedule = append(fc.Schedule, faults.Event{
				At: at(*faultGwRec), Kind: faults.GatewayRecover, Gateway: int32(*faultGateway)})
		}
	}
	if *faultLink != "" {
		a, b, err := parseLink(*faultLink)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fc.Schedule = append(fc.Schedule, faults.Event{
			At: at(*faultLinkAt), Kind: faults.LinkDown, A: a, B: b})
		if *faultLinkRec > 0 {
			fc.Schedule = append(fc.Schedule, faults.Event{
				At: at(*faultLinkRec), Kind: faults.LinkUp, A: a, B: b})
		}
	}
	if *faultLoss > 0 {
		if *faultLossLink == "" {
			fmt.Fprintln(os.Stderr, "-fault-loss requires -fault-loss-link")
			os.Exit(2)
		}
		a, b, err := parseLink(*faultLossLink)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fc.Schedule = append(fc.Schedule, faults.Event{
			At: at(*faultLossAt), Kind: faults.LossStart, A: a, B: b, LossRate: *faultLoss})
		if *faultLossEnd > 0 {
			fc.Schedule = append(fc.Schedule, faults.Event{
				At: at(*faultLossEnd), Kind: faults.LossEnd, A: a, B: b})
		}
	}
	if *faultMTBF > 0 {
		fc.Random = &faults.RandomModel{
			Seed:    *faultSeed,
			MTBF:    simtime.FromStd(*faultMTBF),
			MTTR:    simtime.FromStd(*faultMTTR),
			Horizon: simtime.Time(0).Add(cfg.Duration),
		}
	}
	if !fc.Empty() {
		cfg.Faults = fc
	}
	switch *topoName {
	case "ft8":
		cfg.Topo = topology.FT8()
	case "ft16":
		cfg.Topo = topology.FT16()
	default:
		fmt.Fprintf(os.Stderr, "unknown topology %q\n", *topoName)
		os.Exit(2)
	}

	t0 := time.Now()
	r, err := harness.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	wall := time.Since(t0)

	fmt.Printf("scheme            %s\n", r.Scheme)
	fmt.Printf("trace             %s (%d flows, %d completed)\n", *traceN, r.Summary.Flows, r.Summary.Completed)
	fmt.Printf("topology          %s\n", r.World.Topo)
	eff := r.World.Cfg
	fmt.Printf("cache fraction    %g (aggregate %d entries)\n", eff.CacheFraction, int(eff.CacheFraction*float64(eff.VMs)))
	fmt.Printf("hit rate          %.2f%% (gateway packets %d / %d sent)\n", 100*r.HitRate, r.GatewayPackets, r.HostSent)
	fmt.Printf("avg FCT           %v (p99 %v)\n", r.Summary.AvgFCT, r.Summary.P99FCT)
	fmt.Printf("avg first packet  %v (p99 %v)\n", r.Summary.AvgFirstPacket, r.Summary.P99FirstPacket)
	fmt.Printf("avg packet stretch %.2f switches\n", r.AvgStretch)
	fmt.Printf("network bytes     %d MB across switches\n", r.TotalSwitchBytes>>20)
	fmt.Printf("drops             %d, retransmits %d, misdeliveries %d\n", r.Drops, r.Summary.Retransmits, r.Misdeliveries)
	if cfg.Faults != nil {
		fmt.Printf("faults            %d events applied, %d fault drops, %d loss drops, %d rerouted\n",
			r.FaultEvents, r.FaultDrops, r.LossDrops, r.Rerouted)
	}
	if r.CoreStats != nil {
		tot := r.CoreStats.TotalCacheHitShare()
		fmt.Printf("hit layers        core %.1f%% / spine %.1f%% / tor %.1f%%\n", 100*tot[2], 100*tot[1], 100*tot[0])
		fmt.Printf("protocol          learning %d, spills %d/%d, promotions %d/%d, invalidations %d\n",
			r.LearningPkts, r.CoreStats.SpillInserted, r.CoreStats.SpillAttached,
			r.CoreStats.PromoteInserted, r.CoreStats.PromoteAttached, r.InvalidationPkts)
	}
	fmt.Printf("wall time         %v\n", wall.Round(time.Millisecond))

	if r.Telemetry != nil {
		fmt.Printf("\n--- telemetry ---\n%s", r.Telemetry.Summary())
		if *telemOut != "" {
			if err := writeTelemetry(*telemOut, r.Telemetry); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			fmt.Printf("telemetry written to %s\n", *telemOut)
		}
	}
}

// parseLink parses a link spec like "s3-s10" (switch 3 to switch 10) or
// "h5-s0" (host 5 to switch 0) into a pair of node refs.
func parseLink(spec string) (a, b topology.NodeRef, err error) {
	parseNode := func(s string) (topology.NodeRef, error) {
		if len(s) < 2 {
			return topology.NodeRef{}, fmt.Errorf("bad node %q in link spec %q (want sN or hN)", s, spec)
		}
		idx, err := strconv.Atoi(s[1:])
		if err != nil || idx < 0 {
			return topology.NodeRef{}, fmt.Errorf("bad node %q in link spec %q (want sN or hN)", s, spec)
		}
		switch s[0] {
		case 's':
			return topology.SwitchRef(int32(idx)), nil
		case 'h':
			return topology.HostRef(int32(idx)), nil
		}
		return topology.NodeRef{}, fmt.Errorf("bad node %q in link spec %q (want sN or hN)", s, spec)
	}
	parts := strings.Split(spec, "-")
	if len(parts) != 2 {
		return a, b, fmt.Errorf("bad link spec %q (want e.g. s3-s10)", spec)
	}
	if a, err = parseNode(parts[0]); err != nil {
		return a, b, err
	}
	b, err = parseNode(parts[1])
	return a, b, err
}

// writeTelemetry exports the collector by file extension: .csv gets the
// wide timeline, anything else the full JSON document.
func writeTelemetry(path string, tel *telemetry.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	write := tel.WriteJSON
	if strings.HasSuffix(path, ".csv") {
		write = tel.WriteCSV
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	// Close is the final flush to disk: its error is the write's error.
	return f.Close()
}
