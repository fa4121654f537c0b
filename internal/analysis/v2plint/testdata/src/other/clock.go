// Package other is not under an internal/ directory, so wall-clock
// reads are allowed (e.g. cmd/ front-ends timing a whole run).
package other

import "time"

func elapsed() time.Duration {
	start := time.Now()
	return time.Since(start)
}
