// Production day: run the simulator through a full operational day —
// morning diurnal ramp, midday tenant churn, a VM migration storm,
// gateway fleet autoscaling, a rolling fabric upgrade, and an evening
// drain — and report each phase against its SLOs (p99 first-packet
// latency, gateway offload, cache churn).
//
// The scenario engine (internal/scenario) plans every churn operation,
// fault wave and flow start deterministically from the seed, so the
// report below is byte-identical run to run. The telemetry collector
// samples the network every 200µs of simulated time over the whole day.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"switchv2p"
)

func main() {
	day := flag.Duration("day", 48*time.Millisecond, "simulated day length")
	scheme := flag.String("scheme", switchv2p.SchemeSwitchV2P, "scheme under test")
	compare := flag.String("compare", switchv2p.SchemeGwCache, "second scheme to run (empty = none)")
	flag.Parse()

	schemes := []string{*scheme}
	if *compare != "" {
		schemes = append(schemes, *compare)
	}
	for i, s := range schemes {
		if i > 0 {
			fmt.Println()
		}
		run(s, *day)
	}
}

func run(scheme string, day time.Duration) {
	base := switchv2p.Config{
		VMs:           1024,
		Scheme:        scheme,
		TraceName:     "hadoop",
		Load:          0.4,
		CacheFraction: 0.5,
		Seed:          42,
		Telemetry: &switchv2p.TelemetryOptions{
			Interval: switchv2p.FromStd(200 * time.Microsecond),
		},
	}
	spec := switchv2p.ProductionDay(base, switchv2p.DayOptions{
		DayLength:  switchv2p.FromStd(day),
		FlowBudget: 4800, Churn: 32, Migrations: 24,
		UpgradeWaves: 3, DrainGateways: 2,
	})

	t0 := time.Now()
	rep, err := switchv2p.RunScenario(spec)
	if err != nil {
		log.Fatal(err)
	}
	if err := rep.WriteTable(os.Stdout); err != nil {
		log.Fatal(err)
	}

	telem := rep.Final.Telemetry
	fmt.Printf("telemetry: %d samples of %d series\n",
		len(telem.Timeline.Times), len(telem.Timeline.Series))
	fmt.Printf("wall clock: %v for %.0fms simulated\n",
		time.Since(t0).Round(time.Millisecond), rep.HorizonUs/1e3)
}
