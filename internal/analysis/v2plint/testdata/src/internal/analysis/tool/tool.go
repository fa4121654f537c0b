// Package tool sits under internal/analysis, the one internal tree
// outside the wallclock contract: the linter times its own analyzers.
package tool

import "time"

func elapsed(start time.Time) time.Duration {
	return time.Since(start)
}
