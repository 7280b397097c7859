//go:build race

package mpidbg_test

// raceEnabled reports that the race detector instruments this test
// binary, which makes every assembly several times slower.
const raceEnabled = true
