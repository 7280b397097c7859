// Package all registers every built-in assembler with the
// assembler registry — importing it (possibly blank) makes the
// paper's full Table I inventory available via assembler.Get/List.
package all

import (
	"rnascale/internal/assembler"
	"rnascale/internal/assembler/abyss"
	"rnascale/internal/assembler/contrail"
	"rnascale/internal/assembler/oases"
	"rnascale/internal/assembler/ray"
	"rnascale/internal/assembler/trinity"
	"rnascale/internal/assembler/velvet"
)

func init() {
	// The three distributed tools of the paper's Table I.
	assembler.Register(&ray.Ray{})
	assembler.Register(&abyss.ABySS{})
	assembler.Register(&contrail.Contrail{})
	// The single-node Velvet/Oases baselines.
	assembler.Register(&velvet.Velvet{})
	assembler.Register(&oases.Oases{})
	// The Table V external comparator.
	assembler.Register(&trinity.Trinity{})
}
