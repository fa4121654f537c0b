package trace

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestWorkloadRoundTrip(t *testing.T) {
	w, err := Hadoop(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != w.Name {
		t.Fatalf("name %q != %q", got.Name, w.Name)
	}
	if !reflect.DeepEqual(got.Flows, w.Flows) {
		t.Fatal("flows differ after round trip")
	}
}

func TestWorkloadRoundTripUDP(t *testing.T) {
	w, err := Video(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadWorkload(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Flows, w.Flows) {
		t.Fatal("UDP flows differ after round trip")
	}
}

func TestReadWorkloadRejectsGarbage(t *testing.T) {
	const hdr = `{"format":"switchv2p-workload/1","name":"x","flows":2}` + "\n"
	const ok = `{"ID":1,"Src":1,"Dst":2,"Proto":0,"Start":5,"Bytes":100}` + "\n"
	for _, tc := range []struct{ in, wantErr string }{
		{"", "reading header"},
		{"not json", "reading header"},
		{`{"format":"something-else","name":"x","flows":0}`, "unknown format"},
		{`{"format":"switchv2p-workload/1","name":"x","flows":-1}`, "negative flow count"},
		{`{"format":"switchv2p-workload/1","name":"x","flows":3}` + "\n" + `{"ID":1}`, "decoding flow 1"},
		// A header alone must not size an allocation: these two used to
		// die with "out of memory" and "makeslice: cap out of range".
		{`{"format":"switchv2p-workload/1","name":"x","flows":300000000}`, "decoding flow 0"},
		{`{"format":"switchv2p-workload/1","name":"x","flows":4000000000000000}`, "decoding flow 0"},
		// Flows the engine would panic on, or file over an earlier flow.
		{hdr + ok + `{"ID":2,"Proto":2}`, "flow 1: unknown Proto 2"},
		{hdr + ok + `{"ID":2,"Start":-1}`, "flow 1: negative Start"},
		{hdr + ok + `{"ID":2,"Bytes":-1}`, "flow 1: negative Bytes"},
		{hdr + ok + `{"ID":2,"Proto":1,"Packets":-1}`, "flow 1: negative Bytes"},
		{hdr + ok + `{"ID":2,"Proto":1,"Packets":3,"PacketPayload":-5}`, "flow 1: negative Bytes"},
		{hdr + ok + `{"ID":2,"Proto":1,"Packets":3,"Interval":-1}`, "flow 1: negative Bytes"},
		{hdr + ok + `{"ID":2,"Proto":1,"Packets":3,"PacketPayload":65536}`, "flow 1: PacketPayload 65536 does not fit"},
		{hdr + ok + ok, "flow 1: duplicate ID 1"},
	} {
		_, err := ReadWorkload(strings.NewReader(tc.in))
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("ReadWorkload(%q) = %v, want an error containing %q", tc.in, err, tc.wantErr)
		}
	}
	if w, err := ReadWorkload(strings.NewReader(hdr + ok + `{"ID":2,"Proto":1,"Packets":3}`)); err != nil || len(w.Flows) != 2 {
		t.Fatalf("valid two-flow file rejected: %v", err)
	}
}

// FuzzReadWorkload feeds arbitrary bytes to the workload parser: it must
// return (never panic or reserve memory on the header's say-so), and
// whatever it accepts must be a workload the engine can take — known
// protocols, non-negative fields, unique IDs — that survives Write and
// a second read unchanged. Seed corpus: testdata/fuzz/FuzzReadWorkload.
func FuzzReadWorkload(f *testing.F) {
	f.Add([]byte(`{"format":"switchv2p-workload/1","name":"x","flows":1}` + "\n" + `{"ID":1,"Src":1,"Dst":2,"Bytes":100}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		w, err := ReadWorkload(bytes.NewReader(data))
		if err != nil {
			return
		}
		ids := map[uint64]bool{}
		for i, fl := range w.Flows {
			if fl.Proto > 1 || fl.Start < 0 || fl.Bytes < 0 || fl.Packets < 0 || fl.PacketPayload < 0 || fl.PacketPayload > math.MaxUint16 || fl.Interval < 0 || ids[fl.ID] {
				t.Fatalf("accepted flow %d: %+v", i, fl)
			}
			ids[fl.ID] = true
		}
		var buf bytes.Buffer
		if err := w.Write(&buf); err != nil {
			t.Fatal(err)
		}
		again, err := ReadWorkload(&buf)
		if err != nil || again.Name != w.Name || !reflect.DeepEqual(again.Flows, w.Flows) {
			t.Fatalf("accepted workload does not round-trip: %v", err)
		}
	})
}

func TestWriteIsDeterministic(t *testing.T) {
	w, err := Microbursts(baseConfig())
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := w.Write(&a); err != nil {
		t.Fatal(err)
	}
	if err := w.Write(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two writes of the same workload differ")
	}
}
