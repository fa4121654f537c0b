package simnet

import (
	"testing"
	"time"
)

// Test files are exempt from the wallclock contract: timing a test is
// not simulation state.
func TestMeasureWallTime(t *testing.T) {
	start := time.Now()
	if time.Since(start) < 0 {
		t.Fatal("clock went backwards")
	}
}
