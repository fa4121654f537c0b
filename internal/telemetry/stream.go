package telemetry

import "switchv2p/internal/simtime"

// Incremental CSV emission for windowed/streaming collectors. The
// invariant: the bytes produced over a run of any length are exactly
// what the buffered exporter (Collector.WriteCSV) would produce had
// every sample been retained — both go through csvEmitter. Short runs
// with large windows verify this directly (the oracle tests); long runs
// then stream the same bytes in constant memory.

// initStream emits the CSV header, if the collector streams one. Called
// after every probe is registered and before the first tick.
func (c *Collector) initStream() {
	if c.stream == nil || c.stream.CSV == nil {
		return
	}
	c.csvw, c.streamErr = newCSVEmitter(c.stream.CSV, c.Timeline.Series)
}

// emit writes the sample just recorded by tick to the stream writer.
// The row buffer is reused, so a steady-state tick allocates nothing
// beyond what fixed() formats.
func (c *Collector) emit(now simtime.Time) {
	if c.csvw == nil || c.streamErr != nil {
		return
	}
	c.streamErr = c.csvw.writeRow(now, func(j int) float64 { return c.probes[j].series.last })
}

// FlushStreams flushes the incremental exporter and reports the first
// write error encountered during the run. It must be called once the
// simulation finishes; the harness does so automatically. A collector
// without a stream reports success.
func (c *Collector) FlushStreams() error {
	if c.csvw == nil {
		return nil
	}
	if c.streamErr == nil {
		c.streamErr = c.csvw.flush()
	}
	return c.streamErr
}
