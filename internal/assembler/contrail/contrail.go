// Package contrail implements a Hadoop-MapReduce-based De Bruijn
// graph assembler modelled on Contrail, the third distributed tool in
// the paper's Table I and the one this work newly integrated.
//
// The assembly is expressed, as in real Contrail, as a chain of
// MapReduce jobs over the simulated Hadoop engine:
//
//	build     reads → k-mer node records with bidirected edge sets
//	filter    coverage cutoff
//	compress  ×R rounds of randomized-coin-flip chain merging
//	finalize  single-reducer contig extraction
//
// Records really flow through map, shuffle and reduce; the engine's
// per-job setup cost and slot scheduling produce the paper's Contrail
// signature — dismal TTC on small clusters (Table III: 6,720 s on the
// two-node baseline, ~4–8× the MPI tools) converging toward the MPI
// assemblers as workers are added (Fig. 3).
//
// Contrail is also the tool that, per the paper, "fails due to the
// reads containing nucleotides with N": Assemble rejects unfiltered
// N-containing input, reproducing the need to pre-process P. Crispa
// before Contrail could run.
//
// The build and filter jobs carry k-mers packed by seq.KmerCoder, so
// lowercase (soft-masked) bases fold into uppercase k-mers as in every
// other assembler here; the pipeline's reads are uppercase throughout.
package contrail

import (
	"cmp"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"rnascale/internal/assembler"
	"rnascale/internal/dbg"
	"rnascale/internal/mapreduce"
	"rnascale/internal/seq"
	"rnascale/internal/vclock"
)

// Contrail is the assembler. The zero value uses the calibrated cost
// configuration.
type Contrail struct {
	// JobSetup overrides the per-job overhead when positive (seconds);
	// the Hadoop-tax ablation sweeps it.
	JobSetup float64
	// AllowN disables the strict N check (for tests of the check
	// itself, the paper's pipeline always pre-processes first).
	AllowN bool
}

// Calibrated Hadoop-era throughput (bytes per slot-second). The k-mer
// record blow-up relative to FASTQ input is what makes MapReduce
// assembly expensive; these rates land the B. Glumae two-node baseline
// near Table III's 6,720 s.
const (
	mapRate           = 2.8e6
	reduceRate        = 9.4e6
	compressionRounds = 8
	defaultSetup      = 330.0
)

// Info implements assembler.Assembler.
func (ct *Contrail) Info() assembler.Info {
	return assembler.Info{Name: "contrail", GraphType: "DBG", Distributed: "Hadoop MapReduce", Version: "0.8.2"}
}

// record is a graph node of the compression rounds and the finalize
// job, serialized as "seq|count|L|R" where L and R are edge-base sets
// on the two ends of the (canonical-oriented) sequence. The build and
// filter jobs carry nodes as packed k-mers (see node); the filter's
// output becomes text once, in textRecords.
type record struct {
	seq   string
	count int64
	l, r  string
}

// marshal serializes the record in one allocation. The encoded length
// is what the engine bills, so the format must not change.
func (rec record) marshal() string {
	var sb strings.Builder
	var num [20]byte
	sb.Grow(len(rec.seq) + len(num) + len(rec.l) + len(rec.r) + 3)
	sb.WriteString(rec.seq)
	sb.WriteByte('|')
	sb.Write(strconv.AppendInt(num[:0], rec.count, 10))
	sb.WriteByte('|')
	sb.WriteString(rec.l)
	sb.WriteByte('|')
	sb.WriteString(rec.r)
	return sb.String()
}

// parseRecord splits s at its three separators; the returned fields
// alias s.
func parseRecord(s string) (record, error) {
	var f [3]string
	rest := s
	for i := range f {
		var ok bool
		if f[i], rest, ok = strings.Cut(rest, "|"); !ok {
			return record{}, fmt.Errorf("contrail: bad record %q", s)
		}
	}
	if strings.IndexByte(rest, '|') >= 0 {
		return record{}, fmt.Errorf("contrail: bad record %q", s)
	}
	n, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return record{}, fmt.Errorf("contrail: bad count in %q", s)
	}
	return record{seq: f[0], count: n, l: f[2], r: rest}, nil
}

// canonString returns the canonical form of a k-mer given as a
// string: the smaller of s and its reverse complement. The two are
// compared in place, so only a winning reverse complement allocates.
func canonString(s string) string {
	n := len(s)
	for i := 0; i < n; i++ {
		if c := seq.Complement(s[n-1-i]); c != s[i] {
			if c > s[i] {
				return s
			}
			var buf [64]byte // k ≤ 63: stays on the stack
			rc := buf[:0]
			for j := n - 1; j >= 0; j-- {
				rc = append(rc, seq.Complement(s[j]))
			}
			return string(rc)
		}
	}
	return s
}

// Assemble implements assembler.Assembler.
func (ct *Contrail) Assemble(req assembler.Request) (assembler.Result, error) {
	if err := req.Validate(ct.Info()); err != nil {
		return assembler.Result{}, err
	}
	p := req.Params.WithDefaults(2)
	k := p.K
	if !ct.AllowN {
		for i := range req.Reads {
			if seq.CountN(req.Reads[i].Seq) > 0 {
				return assembler.Result{}, fmt.Errorf(
					"contrail: read %s contains N; pre-process input first (Contrail cannot handle ambiguous bases)",
					req.Reads[i].ID)
			}
		}
	}

	// Hadoop cluster sized to the allocation, billed at full scale.
	var scaledBytes int64
	for _, read := range req.Reads {
		scaledBytes += readBytes(read)
	}
	volumeScale := max(1, float64(req.FullScale.SeqDataBytes)/float64(scaledBytes))
	cfg := mapreduce.Config{
		Workers:        req.Nodes,
		SlotsPerWorker: req.CoresPerNode,
		JobSetup:       mustDur(ct.JobSetup, defaultSetup),
		TaskOverhead:   4,
		MapRate:        mapRate,
		ReduceRate:     reduceRate,
		SplitBytes:     max(1024, int64(64e6/volumeScale)),
		VolumeScale:    volumeScale,
	}
	engine, err := mapreduce.NewEngine(cfg)
	if err != nil {
		return assembler.Result{}, err
	}

	// --- Jobs 1..R+2: build, coverage filter, R rounds of coin-flip chain compression ---
	reducers := req.Nodes * req.CoresPerNode
	out, elapsed, err := buildGraph(engine, req.Reads, seq.MustKmerCoder(k), int64(p.MinCoverage), reducers)
	if err != nil {
		return assembler.Result{}, err
	}
	for r := range compressionRounds {
		res, err := engine.Run(compressionJob(k, r, reducers), out)
		if err != nil {
			return assembler.Result{}, err
		}
		out = res.Output
		elapsed += res.Elapsed
	}

	// --- Final job: single-reducer contig extraction ---
	finalize := mapreduce.Job{
		Name:        "contrail-finalize",
		NumReducers: 1,
		Map: func(kv mapreduce.KV, emit func(mapreduce.KV)) {
			emit(mapreduce.KV{Key: "contigs", Value: kv.Value})
		},
		Reduce: func(key string, values []string, emit func(mapreduce.KV)) {
			g, gerr := dbg.New(k)
			if gerr != nil {
				return
			}
			coder := g.Coder()
			for _, v := range values {
				rec, err := parseRecord(v)
				if err != nil {
					continue
				}
				per := uint32(rec.count / int64(max(1, len(rec.seq)-k+1)))
				if per == 0 {
					per = 1
				}
				coder.ForEachCanonical([]byte(rec.seq), func(_ int, canon seq.Kmer) bool {
					g.AddCount(canon, per)
					return true
				})
			}
			for i, u := range g.Unitigs(p.MinContigLen) {
				emit(mapreduce.KV{
					Key:   fmt.Sprintf("contrail_contig%05d len=%d cov=%.1f", i, len(u.Seq), u.MeanCoverage),
					Value: string(u.Seq),
				})
			}
		},
	}
	// The final dump runs against the already-compressed graph and is
	// master-side in real Contrail: cost it at streaming rates so it
	// does not masquerade as a scale-out bottleneck.
	fcfg := cfg
	fcfg.MapRate *= 10
	fcfg.ReduceRate *= 25
	fengine, err := mapreduce.NewEngine(fcfg)
	if err != nil {
		return assembler.Result{}, err
	}
	fres, err := fengine.Run(finalize, out)
	if err != nil {
		return assembler.Result{}, err
	}
	elapsed += fres.Elapsed

	contigs := make([]seq.FastaRecord, len(fres.Output))
	for i, kv := range fres.Output {
		contigs[i] = seq.FastaRecord{ID: kv.Key, Seq: []byte(kv.Value)}
	}
	sort.SliceStable(contigs, func(a, b int) bool { return len(contigs[a].Seq) > len(contigs[b].Seq) })
	if len(contigs) == 0 {
		return assembler.Result{}, fmt.Errorf("contrail: no contigs (k=%d, min coverage %d)", k, p.MinCoverage)
	}
	return assembler.Result{
		Contigs:             contigs,
		TTC:                 elapsed,
		PeakMemoryGBPerNode: memoryGB(req),
		N50:                 dbg.N50(contigs),
	}, nil
}

// memoryGB is the per-node peak of a run and of its estimate: Hadoop
// spills to disk, but the graph reducers still hold their partition
// resident.
func memoryGB(req assembler.Request) float64 {
	return assembler.GraphMemoryGB(req.FullScale, req.Nodes) * 1.05
}

// node is a k-mer's graph node in the build and filter jobs: how many
// windows it covers and the bases seen beside it on the left and the
// right end of the canonical k-mer, as 4-bit masks indexed by 2-bit
// base code. Its text form is record's. The count is a uint32, as
// seq.KmerTable's are, so that a kmerNode takes 24 bytes, not 32.
type node struct {
	count uint32
	l, r  uint8
}

// merge is the node of the windows of a and of b together.
func (a node) merge(b node) node {
	return node{count: a.count + b.count, l: a.l | b.l, r: a.r | b.r}
}

// kmerNode is the build and filter jobs' record.
type kmerNode = mapreduce.Pair[seq.Kmer, node]

// baseSets renders an edge mask as record's sorted base set.
var baseSets = [16]string{"", "A", "C", "AC", "G", "AG", "CG", "ACG", "T", "AT", "CT", "ACT", "GT", "AGT", "CGT", "ACGT"}

// readBytes is the billed wire length of a read: its ID and bases as
// one text record.
func readBytes(read seq.Read) int64 { return int64(len(read.ID) + len(read.Seq) + 16) }

// nodeJob returns a typed job over k-mer nodes with the record
// operations that bill, partition and order a node as its text record
// (key the k-mer, value its marshalled record), so that every job's
// Elapsed and output are the text job's: the wire length is
// len(key)+len(value)+16, the partition hash is the engine's FNV-1a of
// the k-mer's bases, and packed order equals string order. Values of
// one key, which the jobs fold in any order, sort by count and masks.
// The hash reads the bases as marshalNode does, from the packed words.
func nodeJob[I any](name string, coder seq.KmerCoder, reducers int) mapreduce.TypedJob[I, seq.Kmer, node] {
	k := coder.K
	return mapreduce.TypedJob[I, seq.Kmer, node]{
		Name:        name,
		NumReducers: reducers,
		Bytes: func(kn kmerNode) int64 {
			n := kn.Value
			return int64(2*k+3+digits(n.count)+len(baseSets[n.l])+len(baseSets[n.r])) + 16
		},
		Partition: func(km seq.Kmer) uint64 {
			var buf [seq.MaxK]byte
			h := uint64(14695981039346656037)
			for _, b := range coder.AppendBases(buf[:0], km) {
				h ^= uint64(b)
				h *= 1099511628211
			}
			return h
		},
		Compare: func(a, b kmerNode) int {
			if c := a.Key.Compare(b.Key); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Value.count, b.Value.count); c != 0 {
				return c
			}
			if c := cmp.Compare(a.Value.l, b.Value.l); c != 0 {
				return c
			}
			return cmp.Compare(a.Value.r, b.Value.r)
		},
	}
}

// buildJob is the first job of the chain: reads → k-mer nodes with
// their edge sets. An ambiguous base (only AllowN lets one in) ends
// the read's window there: no window spans it and it is no edge. Each
// window's node is billed and shuffled, and each reduce task folds its
// nodes per k-mer before sorting them.
func buildJob(coder seq.KmerCoder, reducers int) mapreduce.TypedJob[seq.Read, seq.Kmer, node] {
	k := coder.K
	job := nodeJob[seq.Read]("contrail-build", coder, reducers)
	job.InputBytes = readBytes
	job.Map = func(read seq.Read, emit func(kmerNode)) {
		s := read.Seq
		var km, rc seq.Kmer // the window and its reverse complement
		valid := 0          // unambiguous bases ending at i
		for i, b := range s {
			code, ok := seq.Code(b)
			if !ok {
				valid = 0
				continue
			}
			km, _ = coder.Next(km, b)
			rc, _ = coder.Prev(rc, seq.BaseByte(3-code))
			if valid++; valid < k {
				continue
			}
			canon, fwd := km, !rc.Less(km)
			if !fwd {
				canon = rc
			}
			n := node{count: 1}
			if i+1 < len(s) {
				if right, ok := seq.Code(s[i+1]); ok {
					if fwd {
						n.r = 1 << right
					} else {
						n.l = 1 << (3 - right)
					}
				}
			}
			if valid > k {
				left, _ := seq.Code(s[i-k])
				if fwd {
					n.l |= 1 << (3 - left)
				} else {
					n.r |= 1 << left
				}
			}
			emit(kmerNode{Key: canon, Value: n})
		}
	}
	job.Fold = node.merge
	job.Reduce = func(km seq.Kmer, values []node, emit func(kmerNode)) {
		var merged node
		for _, n := range values {
			merged = merged.merge(n)
		}
		emit(kmerNode{Key: km, Value: merged})
	}
	return job
}

// filterJob is the second job of the chain: the coverage cutoff.
func filterJob(coder seq.KmerCoder, minCov int64, reducers int) mapreduce.TypedJob[kmerNode, seq.Kmer, node] {
	job := nodeJob[kmerNode]("contrail-filter", coder, reducers)
	job.InputBytes = job.Bytes
	job.Map = func(kn kmerNode, emit func(kmerNode)) {
		if int64(kn.Value.count) >= minCov {
			emit(kn)
		}
	}
	job.Reduce = func(km seq.Kmer, values []node, emit func(kmerNode)) {
		for _, n := range values {
			emit(kmerNode{Key: km, Value: n})
		}
	}
	return job
}

// buildGraph runs the build and filter jobs over the reads and returns
// the surviving nodes as text records, with the two jobs' summed
// virtual time.
func buildGraph(e *mapreduce.Engine, reads []seq.Read, coder seq.KmerCoder, minCov int64, reducers int) ([]mapreduce.KV, vclock.Duration, error) {
	built, err := mapreduce.RunTyped(e, buildJob(coder, reducers), reads)
	if err != nil {
		return nil, 0, err
	}
	kept, err := mapreduce.RunTyped(e, filterJob(coder, minCov, reducers), built.Output)
	if err != nil {
		return nil, 0, err
	}
	return textRecords(coder, kept.Output), built.Elapsed + kept.Elapsed, nil
}

// textRecords renders nodes as the text records the compression
// rounds take: the key is the value's prefix, one string per record.
func textRecords(coder seq.KmerCoder, nodes []kmerNode) []mapreduce.KV {
	out := make([]mapreduce.KV, len(nodes))
	for i, kn := range nodes {
		v := marshalNode(coder, kn)
		out[i] = mapreduce.KV{Key: v[:coder.K], Value: v}
	}
	return out
}

// marshalNode is record.marshal of the node's text form.
func marshalNode(coder seq.KmerCoder, kn kmerNode) string {
	var sb strings.Builder
	var bases [seq.MaxK]byte
	var num [10]byte
	sb.Grow(coder.K + len(num) + 11)
	sb.Write(coder.AppendBases(bases[:0], kn.Key))
	sb.WriteByte('|')
	sb.Write(strconv.AppendUint(num[:0], uint64(kn.Value.count), 10))
	sb.WriteByte('|')
	sb.WriteString(baseSets[kn.Value.l])
	sb.WriteByte('|')
	sb.WriteString(baseSets[kn.Value.r])
	return sb.String()
}

// digits is the length of n in decimal.
func digits(n uint32) int {
	d := 1
	for ; n >= 10; n /= 10 {
		d++
	}
	return d
}

// compressionJob builds one coin-flip chain-merge round. A node whose
// right edge is unique "flips tails" and mails itself to its successor
// (addressed by the canonical boundary k-mer); a "heads" successor
// whose left edge is unique absorbs it. Orientation-mismatched or
// contended merges bounce unchanged; the finalize job joins whatever
// remains.
func compressionJob(k, round, reducers int) mapreduce.Job {
	coin := func(key string) bool { // true = heads
		h := uint64(14695981039346656037)
		for i := 0; i < len(key); i++ {
			h = (h ^ uint64(key[i])) * 1099511628211
		}
		h ^= uint64(round) * 0x9E3779B97F4A7C15
		h ^= h >> 33
		return h&1 == 0
	}
	return mapreduce.Job{
		Name:        fmt.Sprintf("contrail-compress-%02d", round),
		NumReducers: reducers,
		// Records come from marshal, so re-marshalling a parsed one
		// would reproduce its bytes: unchanged records are forwarded
		// as they arrived.
		Map: func(kv mapreduce.KV, emit func(mapreduce.KV)) {
			rec, err := parseRecord(kv.Value)
			if err != nil {
				return
			}
			anchor := canonString(rec.seq[:k])
			// Tails + unique right edge → request merge into successor.
			if len(rec.r) == 1 && !coin(anchor) {
				boundary := rec.seq[len(rec.seq)-k+1:] + rec.r
				target := canonString(boundary)
				if coin(target) && target != anchor {
					emit(mapreduce.KV{Key: target, Value: "REQ " + kv.Value})
					return
				}
			}
			emit(mapreduce.KV{Key: anchor, Value: "NODE " + kv.Value})
		},
		Reduce: func(key string, values []string, emit func(mapreduce.KV)) {
			type arrival struct {
				record
				wire string
			}
			var nbuf, rbuf [2]arrival // the common key holds one or two
			nodes, reqs := nbuf[:0], rbuf[:0]
			for _, v := range values {
				body := v[strings.IndexByte(v, ' ')+1:]
				rec, err := parseRecord(body)
				if err != nil {
					continue
				}
				if strings.HasPrefix(v, "REQ ") {
					reqs = append(reqs, arrival{rec, body})
				} else {
					nodes = append(nodes, arrival{rec, body})
				}
			}
			if len(nodes) == 1 && len(reqs) == 1 {
				v, u := nodes[0], reqs[0]
				// Orientation check: u's boundary k-mer must be v's
				// forward head, and v's left in-degree must be 1.
				boundary := u.seq[len(u.seq)-k+1:] + u.r
				if v.seq[:k] == boundary && len(v.l) == 1 {
					merged := record{
						seq:   u.seq + v.seq[k-1:],
						count: u.count + v.count,
						l:     u.l,
						r:     v.r,
					}
					emit(mapreduce.KV{Key: canonString(merged.seq[:k]), Value: "NODE " + merged.marshal()})
					return
				}
			}
			for _, a := range append(nodes, reqs...) {
				emit(mapreduce.KV{Key: canonString(a.seq[:k]), Value: "NODE " + a.wire})
			}
		},
	}
}

// Estimate implements assembler.Assembler. Its memory is Assemble's,
// but its TTC mirrors the MapReduce engine's cost arithmetic at full
// scale without moving any records, since the engine bills the record
// volumes it measures. Volumes are derived from the dataset
// statistics: the FASTQ input for the build map, the per-window k-mer
// records for the build shuffle, and the distinct-k-mer node records
// for the filter and compression rounds.
func (ct *Contrail) Estimate(req assembler.Request) (assembler.Result, error) {
	if err := req.ValidateShape(ct.Info()); err != nil {
		return assembler.Result{}, err
	}
	k := float64(req.Params.K)
	slots := float64(req.Nodes * req.CoresPerNode)
	setup := float64(mustDur(ct.JobSetup, defaultSetup))

	input := float64(req.FullScale.SeqDataBytes)
	bases := assembler.FullScaleBases(req.FullScale)
	winFrac := 1.0
	if rl := req.FullScale.ReadLen; rl > 0 {
		winFrac = max(0.02, (float64(rl)-k+1)/float64(rl))
	}
	windows := bases * winFrac
	recordBytes := 2*k + 40
	distinct := assembler.DistinctKmers(req.FullScale)
	nodeVolume := distinct * recordBytes

	build := input/(mapRate*slots) + windows*recordBytes/(reduceRate*slots)
	filter := nodeVolume/(mapRate*slots) + nodeVolume/(reduceRate*slots)
	compress := compressionRounds * (nodeVolume/(mapRate*slots) + nodeVolume/(reduceRate*slots))
	finalize := nodeVolume/(10*mapRate*slots) + nodeVolume/(25*reduceRate)
	setups := (3 + compressionRounds) * setup
	return assembler.Result{
		TTC:                 vclock.Duration(build + filter + compress + finalize + setups),
		PeakMemoryGBPerNode: memoryGB(req),
	}, nil
}

func mustDur(v, def float64) vclock.Duration {
	if v > 0 {
		return vclock.Duration(v)
	}
	return vclock.Duration(def)
}
