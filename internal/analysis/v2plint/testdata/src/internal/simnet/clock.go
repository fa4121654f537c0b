// Package simnet stands in for a package under the wallclock contract
// (any import path below internal/, internal/analysis excepted).
package simnet

import "time"

func measure() time.Duration {
	start := time.Now()      // want `time\.Now reads the wall clock inside simulation package simnet`
	return time.Since(start) // want `time\.Since reads the wall clock`
}

func deadline() time.Time {
	_ = time.Until(time.Unix(0, 0)) // want `time\.Until reads the wall clock`
	return time.Unix(0, 0)          // constructing times is fine, only clock reads are flagged
}

func profiled() time.Time {
	//v2plint:allow wallclock profiling hook
	return time.Now()
}

func inline() time.Time {
	return time.Now() //v2plint:allow wallclock same-line annotation
}
