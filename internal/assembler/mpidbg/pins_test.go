package mpidbg_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"rnascale/internal/assembler"
	"rnascale/internal/assembler/abyss"
	"rnascale/internal/assembler/ray"
	"rnascale/internal/cloud"
	"rnascale/internal/preprocess"
	"rnascale/internal/simdata"
)

// mpiPin is one (tool, k) assembly's result on a profile's cleaned
// reads at 1 node × C32XLarge.Cores ranks, the allocation the pipeline
// gives every MPI job.
type mpiPin struct {
	tool               string
	k, contigs         int
	ttc                string
	messages, bytesOut int64
}

// The pins were recorded on the commit before the O(1) reverse
// complement, the open-addressed k-mer table and the frozen traversal
// order landed: contig counts, virtual TTC to the nanosecond, traffic
// counters, and one digest per profile over every contig ID and
// sequence in pin order.
var (
	pcrispaPins = []mpiPin{
		{"ray", 51, 123, "4101.856346500", 56, 22207500000},
		{"ray", 55, 129, "4095.437321500", 56, 20430900000},
		{"ray", 59, 127, "4089.018296500", 56, 18654300000},
		{"ray", 63, 115, "4082.599271500", 56, 16877700000},
		{"abyss", 51, 121, "2151.936502750", 56, 18506250000},
		{"abyss", 55, 117, "2149.231065250", 56, 17025750000},
		{"abyss", 59, 116, "2146.525627750", 56, 15545250000},
		{"abyss", 63, 120, "2143.820190250", 56, 14064750000},
	}
	bglumaePins = []mpiPin{
		{"ray", 35, 38, "76.262771499", 56, 264600000},
		{"ray", 37, 38, "76.143268374", 56, 231525000},
		{"ray", 39, 43, "76.023765249", 56, 198450000},
		{"ray", 41, 46, "75.904262124", 56, 165375000},
		{"ray", 43, 37, "75.784758999", 56, 132300000},
		{"ray", 45, 34, "75.665255874", 56, 99225000},
		{"ray", 47, 32, "75.545752749", 56, 66150000},
		{"abyss", 35, 40, "40.272183999", 56, 220500000},
		{"abyss", 37, 43, "40.221816810", 56, 192937472},
		{"abyss", 39, 42, "40.171449624", 56, 165375000},
		{"abyss", 41, 37, "40.121082435", 56, 137812472},
		{"abyss", 43, 43, "40.070715249", 56, 110250000},
		{"abyss", 45, 43, "40.020348060", 56, 82687472},
		{"abyss", 47, 36, "39.969980874", 56, 55125000},
	}
)

const (
	pcrispaContigsSHA256 = "a1987129249a977366484925d934ccfe27d840f321b254ebbe52883dee2bd16a"
	bglumaeContigsSHA256 = "d13cebe4cbb4ada05ae9a3d1b7edd82f9ffcee4d1101d122c843c90571d753f1"
)

func TestPCrispaPins(t *testing.T) {
	if testing.Short() {
		t.Skip("22 full-profile assemblies")
	}
	for _, tc := range []struct {
		profile simdata.Profile
		pins    []mpiPin
		sha     string
	}{
		{simdata.PCrispa(), pcrispaPins, pcrispaContigsSHA256},
		{simdata.BGlumae(), bglumaePins, bglumaeContigsSHA256},
	} {
		ds, err := simdata.Generate(tc.profile)
		if err != nil {
			t.Fatal(err)
		}
		cleaned, _ := preprocess.Run(ds.Reads, preprocess.DefaultOptions())
		fs := ds.Profile.FullScale
		fs.SeqDataBytes = fs.PostPreprocessBytes
		tools := map[string]assembler.Assembler{"ray": &ray.Ray{}, "abyss": &abyss.ABySS{}}
		h := sha256.New()
		for _, pin := range tc.pins {
			res, err := tools[pin.tool].Assemble(assembler.Request{
				Reads: cleaned.Reads, Params: assembler.Params{K: pin.k},
				Nodes: 1, CoresPerNode: cloud.C32XLarge.Cores, FullScale: fs,
			})
			if err != nil {
				t.Fatalf("%s %s k=%d: %v", tc.profile.Name, pin.tool, pin.k, err)
			}
			got := mpiPin{pin.tool, pin.k, len(res.Contigs), fmt.Sprintf("%.9f", res.TTC.Seconds()), res.Messages, res.BytesSent}
			if got != pin {
				t.Errorf("%s: got %+v, want %+v", tc.profile.Name, got, pin)
			}
			for _, c := range res.Contigs {
				fmt.Fprintf(h, "%s\n%s\n", c.ID, c.Seq)
			}
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != tc.sha {
			t.Errorf("%s: contigs digest %s, want %s", tc.profile.Name, got, tc.sha)
		}
	}
}
