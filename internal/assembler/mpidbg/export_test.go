package mpidbg

// SpectraCounted reports how many k-mer spectra the package has counted.
func SpectraCounted() int64 { return spectra.Load() }
