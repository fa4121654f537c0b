package scenario

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"

	"switchv2p/internal/harness"
	"switchv2p/internal/simtime"
	"switchv2p/internal/transport"
)

// PhaseReport is one phase's outcome: traffic summary, counter deltas
// between the phase-boundary snapshots, the churn/fault activity that
// actually happened, and the SLO verdict.
type PhaseReport struct {
	Name    string  `json:"name"`
	StartUs float64 `json:"start_us"`
	EndUs   float64 `json:"end_us"`

	Flows     int `json:"flows"` // flows that started inside the phase
	Completed int `json:"completed"`
	TimedOut  int `json:"timed_out"`

	P50FirstPacketUs float64 `json:"p50_first_packet_us"`
	P99FirstPacketUs float64 `json:"p99_first_packet_us"`
	P99FCTUs         float64 `json:"p99_fct_us"`

	// Offload is the fraction of the phase's host-sent packets kept off
	// the gateways (1 − Δgateway/Δhost-sent); −1 when the phase carried
	// no traffic. CacheChurn is evictions per lookup over the phase; −1
	// when the scheme has no in-network cache or saw no lookups.
	Offload    float64 `json:"offload"`
	CacheChurn float64 `json:"cache_churn"`

	HostSent       int64 `json:"host_sent"`
	GatewayPackets int64 `json:"gateway_packets"`
	Drops          int64 `json:"drops"`
	FaultDrops     int64 `json:"fault_drops"`
	// StaleLookups counts gateway lookups for VIPs that had departed —
	// stragglers from flows outliving their destination VM.
	StaleLookups int64 `json:"stale_lookups"`

	Arrivals    int `json:"arrivals"`
	Departures  int `json:"departures"`
	Migrations  int `json:"migrations"`
	FaultEvents int `json:"fault_events"`

	SLOPass    bool     `json:"slo_pass"`
	Violations []string `json:"violations,omitempty"`
}

// Report is the scenario's outcome across all phases.
type Report struct {
	Name      string        `json:"name"`
	Scheme    string        `json:"scheme"`
	Seed      int64         `json:"seed"`
	HorizonUs float64       `json:"horizon_us"`
	Flows     int           `json:"flows"`
	Phases    []PhaseReport `json:"phases"`
	SLOPass   bool          `json:"slo_pass"`

	// Final is the whole-run harness report (totals, telemetry handle);
	// excluded from JSON, which stays phase-oriented. Nil in RunAll's
	// reports.
	Final *harness.Report `json:"-"`
}

func usOf(t simtime.Time) float64        { return float64(t) / 1e3 }
func usOfDur(d simtime.Duration) float64 { return float64(d) / 1e3 }
func fmtUs(v float64) string             { return strconv.FormatFloat(v, 'f', 1, 64) }

// fmtRatio prints a ratio; the −1 sentinel ("not measured") renders as
// a dash. Slightly negative offloads are real measurements — in-flight
// packets cross the snapshot boundary — and print as numbers.
func fmtRatio(v float64) string {
	if v <= -1 {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', 3, 64)
}

// assemble builds the report from the run's snapshots and flow records.
func assemble(spec Spec, w *harness.World, pl *plan, rs *runState) *Report {
	rep := &Report{
		Name:      spec.Name,
		Scheme:    w.Scheme.Name(),
		Seed:      w.Cfg.Seed,
		HorizonUs: usOf(pl.horizon),
		Flows:     len(w.Agent.Records),
		Phases:    make([]PhaseReport, len(spec.Phases)),
		SLOPass:   true,
		Final:     w.Report(),
	}

	// Bucket flow records by the phase their spec'd start falls in.
	// Starts are sorted per construction order, not globally; search the
	// window list per record.
	buckets := make([][]*transport.FlowRecord, len(spec.Phases))
	starts := make([]simtime.Time, len(spec.Phases))
	for k := range pl.windows {
		starts[k] = pl.windows[k].start
	}
	for _, r := range w.Agent.Records {
		s := r.Spec.Start
		k := sort.Search(len(starts), func(i int) bool { return starts[i] > s }) - 1
		if k >= 0 && s < pl.windows[k].end {
			buckets[k] = append(buckets[k], r)
		}
	}

	for k := range spec.Phases {
		p := &spec.Phases[k]
		win := pl.windows[k]
		sum := transport.Summarize(buckets[k])
		delta := func(f func(counterSnap) int64) int64 {
			return f(rs.snaps[k+1]) - f(rs.snaps[k])
		}
		pr := PhaseReport{
			Name:             p.Name,
			StartUs:          usOf(win.start),
			EndUs:            usOf(win.end),
			Flows:            sum.Flows,
			Completed:        sum.Completed,
			TimedOut:         sum.TimedOut,
			P50FirstPacketUs: usOfDur(sum.P50FirstPacket),
			P99FirstPacketUs: usOfDur(sum.P99FirstPacket),
			P99FCTUs:         usOfDur(sum.P99FCT),
			HostSent:         delta(func(s counterSnap) int64 { return s.hostSent }),
			GatewayPackets:   delta(func(s counterSnap) int64 { return s.gwPkts }),
			Drops:            delta(func(s counterSnap) int64 { return s.drops }),
			FaultDrops:       delta(func(s counterSnap) int64 { return s.faultDrops }),
			StaleLookups:     delta(func(s counterSnap) int64 { return s.staleLookups }),
			Arrivals:         rs.applied[k].arrivals,
			Departures:       rs.applied[k].departures,
			Migrations:       rs.applied[k].migrations,
		}
		pr.Offload = -1
		if pr.HostSent > 0 {
			off := 1 - float64(pr.GatewayPackets)/float64(pr.HostSent)
			// Packets in flight across the boundary can push the
			// measurement slightly negative; keep it clear of the −1
			// "not measured" sentinel.
			if off < -0.999 {
				off = -0.999
			}
			pr.Offload = off
		}
		pr.CacheChurn = -1
		if w.CoreStats() != nil {
			if lk := delta(func(s counterSnap) int64 { return s.lookups }); lk > 0 {
				pr.CacheChurn = float64(delta(func(s counterSnap) int64 { return s.evictions })) / float64(lk)
			}
		}
		if w.Injector != nil {
			for i := range w.Injector.Applied {
				at := w.Injector.Applied[i].At
				if at >= win.start && at < win.end {
					pr.FaultEvents++
				}
			}
		}
		evaluateSLO(p, sum, &pr)
		if !pr.SLOPass {
			rep.SLOPass = false
		}
		rep.Phases[k] = pr
	}
	return rep
}

// evaluateSLO checks the phase's declared objectives against its
// measured outcome. Probes whose inputs don't apply (no traffic, no
// cache) are skipped, not failed.
func evaluateSLO(p *Phase, sum transport.Summary, pr *PhaseReport) {
	var v []string
	if p.SLO.MaxP99FirstPacket > 0 && sum.Flows > 0 && sum.P99FirstPacket > p.SLO.MaxP99FirstPacket {
		v = append(v, fmt.Sprintf("p99 first-packet %v > %v", sum.P99FirstPacket, p.SLO.MaxP99FirstPacket))
	}
	if p.SLO.MinOffload > 0 && pr.Offload > -1 && pr.Offload < p.SLO.MinOffload {
		v = append(v, fmt.Sprintf("offload %s < %s", fmtRatio(pr.Offload), fmtRatio(p.SLO.MinOffload)))
	}
	if p.SLO.MaxCacheChurn > 0 && pr.CacheChurn >= 0 && pr.CacheChurn > p.SLO.MaxCacheChurn {
		v = append(v, fmt.Sprintf("cache churn %s > %s", fmtRatio(pr.CacheChurn), fmtRatio(p.SLO.MaxCacheChurn)))
	}
	pr.Violations = v
	pr.SLOPass = len(v) == 0
}

// WriteJSON emits the report as indented JSON (deterministic for a
// deterministic report).
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteTable renders the per-phase SLO table.
func (r *Report) WriteTable(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintf(tw, "scenario %s  scheme=%s  seed=%d  horizon=%sµs  flows=%d\n",
		r.Name, r.Scheme, r.Seed, fmtUs(r.HorizonUs), r.Flows)
	fmt.Fprintln(tw, "PHASE\tWINDOW(µs)\tFLOWS\tP99-FP(µs)\tOFFLOAD\tCHURN\tOPS(a/d/m)\tFAULTS\tSLO")
	for i := range r.Phases {
		p := &r.Phases[i]
		verdict := "pass"
		if !p.SLOPass {
			verdict = "FAIL"
		}
		fmt.Fprintf(tw, "%s\t[%s,%s)\t%d\t%s\t%s\t%s\t%d/%d/%d\t%d\t%s\n",
			p.Name, fmtUs(p.StartUs), fmtUs(p.EndUs), p.Flows,
			fmtUs(p.P99FirstPacketUs), fmtRatio(p.Offload), fmtRatio(p.CacheChurn),
			p.Arrivals, p.Departures, p.Migrations, p.FaultEvents, verdict)
	}
	for i := range r.Phases {
		p := &r.Phases[i]
		for _, viol := range p.Violations {
			fmt.Fprintf(tw, "  ! %s\t%s\n", p.Name, viol)
		}
	}
	return tw.Flush()
}
