package harness

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"switchv2p/internal/simtime"
)

func parseCSV(t *testing.T, buf *bytes.Buffer) [][]string {
	t.Helper()
	rows, err := csv.NewReader(buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	return rows
}

func TestWriteSweepCSV(t *testing.T) {
	pts := []SweepPoint{
		{Scheme: "SwitchV2P", CacheFraction: 0.5, HitRate: 0.81,
			FCT: 90 * simtime.Microsecond, FCTImprovement: 1.9,
			FirstPacket: 54 * simtime.Microsecond, FirstPktImprovement: 1.2},
		{Scheme: "NoCache", CacheFraction: 0, HitRate: 0,
			FCT: 175 * simtime.Microsecond, FCTImprovement: 1,
			FirstPacket: 67 * simtime.Microsecond, FirstPktImprovement: 1},
	}
	var buf bytes.Buffer
	if err := WriteSweepCSV(&buf, pts); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0][0] != "scheme" || rows[1][0] != "SwitchV2P" || rows[1][2] != "0.810000" {
		t.Fatalf("unexpected rows: %v", rows[:2])
	}
	if rows[1][3] != "90.000000" {
		t.Fatalf("fct_us = %q, want 90.000000", rows[1][3])
	}
}

func TestWriteGatewayAndTopologyCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteGatewayCSV(&buf, []GatewayPoint{
		{Scheme: "nocache", Gateways: 4, FCT: 290 * simtime.Microsecond, Drops: 7},
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "nocache,4,290.000000,0.000000,7") {
		t.Fatalf("gateway csv: %q", buf.String())
	}
	buf.Reset()
	if err := WriteTopologyCSV(&buf, []TopologyPoint{
		{Scheme: "switchv2p", Pods: 16, FCT: 85 * simtime.Microsecond},
	}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "switchv2p,16,85.000000") {
		t.Fatalf("topology csv: %q", buf.String())
	}
}

func TestWritePodBytesCSVFromRun(t *testing.T) {
	r, err := Run(quickConfig(SchemeNoCache))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WritePodBytesCSV(&buf, []*Report{r}); err != nil {
		t.Fatal(err)
	}
	rows := parseCSV(t, &buf)
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if got := len(rows[0]); got != 1+8+2 {
		t.Fatalf("header width = %d, want 11", got)
	}
	if err := WritePodBytesCSV(&buf, nil); err == nil {
		t.Fatal("empty reports accepted")
	}
}

func TestWriteMigrationCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteMigrationCSV(&buf, []*MigrationResult{{
		Scheme: "SwitchV2P", GatewayPacketShare: 0.1,
		AvgPacketLatency:        17 * simtime.Microsecond,
		LastMisdeliveredArrival: simtime.Time(605 * simtime.Microsecond),
		Misdelivered:            271, InvalidationPkts: 22,
	}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SwitchV2P,0.100000,17.000000,605.000000,271,22") {
		t.Fatalf("migration csv: %q", buf.String())
	}
}
