package harness

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"switchv2p/internal/simtime"
)

// CSV exporters: plot-ready output for the figures. Columns mirror the
// paper's axes so the series can be fed straight into a plotting tool.

func writeAll(w *csv.Writer, rows [][]string) error {
	for _, row := range rows {
		if err := w.Write(row); err != nil {
			return err
		}
	}
	w.Flush()
	return w.Error()
}

// f formats floats at fixed precision so re-exported CSVs diff cleanly:
// 'g' switches between %e and %f by magnitude, which makes a value's
// textual form depend on neighbours' scale and breaks byte comparisons.
func f(v float64) string { return strconv.FormatFloat(v, 'f', 6, 64) }

func us(d simtime.Duration) string { return f(d.Micros()) }

// WriteSweepCSV exports Fig. 5/6-style cache-size sweep points.
func WriteSweepCSV(out io.Writer, pts []SweepPoint) error {
	w := csv.NewWriter(out)
	rows := [][]string{{
		"scheme", "cache_fraction", "hit_rate",
		"fct_us", "fct_improvement", "first_packet_us", "first_packet_improvement",
	}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Scheme, f(p.CacheFraction), f(p.HitRate),
			us(p.FCT), f(p.FCTImprovement), us(p.FirstPacket), f(p.FirstPktImprovement),
		})
	}
	return writeAll(w, rows)
}

// WriteGatewayCSV exports Fig. 9-style gateway sweep points.
func WriteGatewayCSV(out io.Writer, pts []GatewayPoint) error {
	w := csv.NewWriter(out)
	rows := [][]string{{"scheme", "gateways", "fct_us", "first_packet_us", "drops"}}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Scheme, strconv.Itoa(p.Gateways), us(p.FCT), us(p.FirstPacket),
			strconv.FormatInt(p.Drops, 10),
		})
	}
	return writeAll(w, rows)
}

// WriteTopologyCSV exports Fig. 10-style topology-scaling points.
func WriteTopologyCSV(out io.Writer, pts []TopologyPoint) error {
	w := csv.NewWriter(out)
	rows := [][]string{{"scheme", "pods", "fct_us"}}
	for _, p := range pts {
		rows = append(rows, []string{p.Scheme, strconv.Itoa(p.Pods), us(p.FCT)})
	}
	return writeAll(w, rows)
}

// PodBytes is one Fig. 7 heatmap row: the bytes each pod's switches
// processed in one run, their total and the run's packet stretch.
type PodBytes struct {
	Scheme     string
	PerPod     []int64
	Total      int64
	AvgStretch float64
}

// WritePodBytesCSV exports Fig. 7-style per-pod byte heatmap rows, one
// per run.
func WritePodBytesCSV(out io.Writer, pts []PodBytes) error {
	if len(pts) == 0 {
		return fmt.Errorf("harness: no rows")
	}
	w := csv.NewWriter(out)
	header := []string{"scheme"}
	for pod := range pts[0].PerPod {
		header = append(header, fmt.Sprintf("pod%d_bytes", pod+1))
	}
	header = append(header, "total_bytes", "avg_stretch")
	rows := [][]string{header}
	for _, p := range pts {
		row := []string{p.Scheme}
		for _, b := range p.PerPod {
			row = append(row, strconv.FormatInt(b, 10))
		}
		row = append(row, strconv.FormatInt(p.Total, 10), f(p.AvgStretch))
		rows = append(rows, row)
	}
	return writeAll(w, rows)
}

// WriteMigrationCSV exports Table 4-style migration results.
func WriteMigrationCSV(out io.Writer, results []*MigrationResult) error {
	w := csv.NewWriter(out)
	rows := [][]string{{
		"scheme", "gateway_packet_share", "avg_packet_latency_us",
		"last_misdelivered_us", "misdelivered", "invalidation_packets",
	}}
	for _, r := range results {
		rows = append(rows, []string{
			r.Scheme, f(r.GatewayPacketShare), us(r.AvgPacketLatency),
			f(float64(r.LastMisdeliveredArrival) / 1000),
			strconv.FormatInt(r.Misdelivered, 10),
			strconv.FormatInt(r.InvalidationPkts, 10),
		})
	}
	return writeAll(w, rows)
}
