package journal

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
)

// Merkle commitments over journal records, RFC 6962-shaped: leaves
// and interior nodes are domain-separated (0x00 / 0x01 prefixes) and
// an odd node at any level is promoted unpaired to the next. The
// linear hash chain (chain.go) proves ordering and detects torn
// tails; the Merkle tree is the complement for *auditing*: a root is
// a compact commitment to the whole record set, and an inclusion
// proof shows one record belongs to it in O(log n) hashes — what the
// gateway's GET /api/runs/{id}/proof serves so a user can pin a run's
// provenance without downloading the journal.

// leafHash is a record's Merkle leaf, from its chainless header and
// its payload.
func leafHash(head, payload []byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write(leafPrefix)
	h.Write(head)
	h.Write(payload)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

func nodeHash(left, right [sha256.Size]byte) [sha256.Size]byte {
	h := sha256.New()
	h.Write([]byte{0x01})
	h.Write(left[:])
	h.Write(right[:])
	var sum [sha256.Size]byte
	copy(sum[:], h.Sum(nil))
	return sum
}

// emptyRoot commits to "no records" distinctly from any record set.
func emptyRoot() [sha256.Size]byte {
	return sha256.Sum256([]byte(Schema + "/empty-tree"))
}

func merkleRoot(level [][sha256.Size]byte) [sha256.Size]byte {
	if len(level) == 0 {
		return emptyRoot()
	}
	for len(level) > 1 {
		var next [][sha256.Size]byte
		for i := 0; i < len(level); i += 2 {
			if i+1 < len(level) {
				next = append(next, nodeHash(level[i], level[i+1]))
			} else {
				next = append(next, level[i])
			}
		}
		level = next
	}
	return level[0]
}

// Root returns the Merkle root over the log's records, hex-encoded.
func (l *Log) Root() string { return rootHex(l.leaves) }

func rootHex(leaves [][sha256.Size]byte) string {
	root := merkleRoot(leaves)
	return hex.EncodeToString(root[:])
}

// ProofStep is one audit-path element: the sibling hash and which
// side of the running hash it combines on.
type ProofStep struct {
	Hash string `json:"hash"`
	// Right is true when the sibling sits to the right of the running
	// hash (running hash is the left child).
	Right bool `json:"right"`
}

// Proof is a self-contained inclusion proof: folding Leaf through
// Audit must reproduce Root, and ChainHead lets the verifier tie the
// root to the chain head they pinned when the proof was issued.
type Proof struct {
	Seq       int         `json:"seq"`
	Records   int         `json:"records"`
	Leaf      string      `json:"leaf"`
	Audit     []ProofStep `json:"audit"`
	Root      string      `json:"root"`
	ChainHead string      `json:"chainHead"`
}

// Proof builds the inclusion proof for record seq.
func (l *Log) Proof(seq int) (Proof, error) {
	leaves := l.leaves
	if seq < 0 || seq >= len(leaves) {
		return Proof{}, fmt.Errorf("journal: proof: seq %d out of range [0,%d)", seq, len(leaves))
	}
	p := Proof{
		Seq:       seq,
		Records:   len(leaves),
		Leaf:      hex.EncodeToString(leaves[seq][:]),
		ChainHead: l.ChainHead(),
	}
	level, i := leaves, seq
	for len(level) > 1 {
		var next [][sha256.Size]byte
		for j := 0; j < len(level); j += 2 {
			if j+1 < len(level) {
				next = append(next, nodeHash(level[j], level[j+1]))
			} else {
				next = append(next, level[j])
			}
		}
		sib := i ^ 1
		if sib < len(level) {
			p.Audit = append(p.Audit, ProofStep{
				Hash:  hex.EncodeToString(level[sib][:]),
				Right: sib > i,
			})
		}
		i /= 2
		level = next
	}
	p.Root = hex.EncodeToString(level[0][:])
	return p, nil
}

// RecordLeaf computes the Merkle leaf of a record an auditor holds,
// for comparison against Proof.Leaf. A log's own leaves are taken
// over the stored bytes as they are read; for a record the Writer
// wrote, re-marshalling its header reproduces those bytes.
func RecordLeaf(rec Record) (string, error) {
	head, err := marshalHeader(rec)
	if err != nil {
		return "", err
	}
	sum := leafHash(head, rec.Payload)
	return hex.EncodeToString(sum[:]), nil
}

// VerifyInclusion checks that folding the proof's leaf through its
// audit path reproduces its root.
func VerifyInclusion(p Proof) error {
	cur, err := hex.DecodeString(p.Leaf)
	if err != nil || len(cur) != sha256.Size {
		return fmt.Errorf("journal: proof: bad leaf %q", p.Leaf)
	}
	var running [sha256.Size]byte
	copy(running[:], cur)
	for i, step := range p.Audit {
		sib, err := hex.DecodeString(step.Hash)
		if err != nil || len(sib) != sha256.Size {
			return fmt.Errorf("journal: proof: bad audit step %d", i)
		}
		var s [sha256.Size]byte
		copy(s[:], sib)
		if step.Right {
			running = nodeHash(running, s)
		} else {
			running = nodeHash(s, running)
		}
	}
	if got := hex.EncodeToString(running[:]); got != p.Root {
		return fmt.Errorf("journal: proof does not verify: audit path folds to %.12s…, root is %.12s…", got, p.Root)
	}
	return nil
}
