package main

import (
	"fmt"
	"os"

	"switchv2p/internal/harness"
	"switchv2p/internal/scenario"
	"switchv2p/internal/simtime"
)

// scenarios maps -scenario names to runners.
var scenarios = map[string]func(Scale) error{
	"production-day": productionDay,
}

// dayOptions sizes the production day for the chosen scale: quick
// compresses the same six-phase structure into milliseconds for CI
// smokes; standard and full run multi-hour simulated horizons (the
// event count follows the flow budget, not the horizon, and the driver
// attaches no telemetry sampler, so long horizons are cheap).
func dayOptions(sc Scale) scenario.DayOptions {
	switch sc.Name {
	case "quick":
		return scenario.DayOptions{
			DayLength:  24 * simtime.Millisecond,
			FlowBudget: 2400, Churn: 24, Migrations: 16,
			UpgradeWaves: 2, DrainGateways: 2,
		}
	case "full":
		return scenario.DayOptions{
			DayLength:  8 * 3600 * simtime.Second,
			FlowBudget: 100000, Churn: 256, Migrations: 128,
			UpgradeWaves: 8, DrainGateways: 2,
		}
	default: // standard
		return scenario.DayOptions{
			DayLength:  4 * 3600 * simtime.Second,
			FlowBudget: 48000, Churn: 128, Migrations: 64,
			UpgradeWaves: 4, DrainGateways: 2,
		}
	}
}

// productionDay runs the canonical long-horizon scenario for every
// scheme and prints one per-phase SLO table each.
func productionDay(sc Scale) error {
	spec := scenario.ProductionDay(sc.baseConfig("hadoop"), dayOptions(sc))
	reports, err := scenario.RunAll(spec, harness.AllSchemes)
	if err != nil {
		return err
	}
	for i, rep := range reports {
		if i > 0 {
			fmt.Println()
		}
		if err := rep.WriteTable(os.Stdout); err != nil {
			return err
		}
		if err := writeCSV(fmt.Sprintf("scenario_%s_%s.json", spec.Name, rep.Scheme), rep.WriteJSON); err != nil {
			return err
		}
	}
	return nil
}
