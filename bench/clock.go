package main

import "time"

// This file is the benchmark's only contact with the host clock.
// bench imports internal/vclock transitively, so rnavet treats it as a
// simulation package; every wall-clock read is confined here behind an
// audited allow, and nothing below feeds virtual time.

var processStart = time.Now() //rnavet:allow wallclock — the benchmark measures host time by design; anchor for monotonic offsets

// now reports monotonic host nanoseconds since process start.
func now() int64 {
	return int64(time.Since(processStart)) //rnavet:allow wallclock — host-time measurement is the benchmark's purpose
}

// sinceMS reports the host milliseconds elapsed since a now() reading.
func sinceMS(start int64) float64 { return float64(now()-start) / 1e6 }

// pause sleeps on the host clock (the gateway client's poll interval).
func pause(d time.Duration) {
	time.Sleep(d) //rnavet:allow wallclock — closed-loop clients poll in real time, like a real API user
}
