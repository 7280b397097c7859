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
package contrail

import (
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
	// JobSetup overrides the per-job overhead when positive (seconds).
	JobSetup float64
	// CompressionRounds overrides the number of compression jobs.
	CompressionRounds int
	// AllowN disables the strict N check (for tests of the check
	// itself, the paper's pipeline always pre-processes first).
	AllowN bool
}

// Calibrated Hadoop-era throughput (bytes per slot-second). The k-mer
// record blow-up relative to FASTQ input is what makes MapReduce
// assembly expensive; these rates land the B. Glumae two-node baseline
// near Table III's 6,720 s.
const (
	mapRate       = 2.8e6
	reduceRate    = 9.4e6
	defaultRounds = 8
	defaultSetup  = 330.0
)

// Info implements assembler.Assembler.
func (ct *Contrail) Info() assembler.Info {
	return assembler.Info{Name: "contrail", GraphType: "DBG", Distributed: "Hadoop MapReduce", Version: "0.8.2"}
}

// record is a graph node flowing through the MR jobs, serialized as
// "seq|count|L|R" where L and R are edge-base sets on the two ends of
// the (canonical-oriented) sequence.
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

// addBase inserts b into the sorted base set s.
func addBase(s string, b byte) string {
	i := 0
	for i < len(s) && s[i] < b {
		i++
	}
	if i < len(s) && s[i] == b {
		return s
	}
	return s[:i] + string(b) + s[i:]
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
	input := make([]mapreduce.KV, len(req.Reads))
	for i := range req.Reads {
		input[i] = mapreduce.KV{Key: req.Reads[i].ID, Value: string(req.Reads[i].Seq)}
	}
	scaledBytes := mapreduce.TotalBytes(input)
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
	rounds := ct.CompressionRounds
	if rounds <= 0 {
		rounds = defaultRounds
	}
	reducers := req.Nodes * req.CoresPerNode
	jobs := []mapreduce.Job{buildJob(k, reducers), filterJob(int64(p.MinCoverage), reducers)}
	for r := 0; r < rounds; r++ {
		jobs = append(jobs, compressionJob(k, r, reducers))
	}

	out, elapsed, err := engine.RunChain(jobs, input)
	if err != nil {
		return assembler.Result{}, err
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

// buildJob is the first job of the chain: reads → k-mer node records
// with their edge sets.
func buildJob(k, reducers int) mapreduce.Job {
	return mapreduce.Job{
		Name:        "contrail-build",
		NumReducers: reducers,
		Map: func(kv mapreduce.KV, emit func(mapreduce.KV)) {
			// An ambiguous base (only AllowN lets one in) ends the read
			// there: each ACGT stretch is windowed on its own.
			for _, read := range strings.FieldsFunc(kv.Value, notBase) {
				for i := 0; i+k <= len(read); i++ {
					w := read[i : i+k]
					c := canonString(w)
					fwd := c == w
					rec := record{seq: c, count: 1}
					if i+k < len(read) {
						if b := read[i+k]; fwd {
							rec.r = string(b)
						} else {
							rec.l = string(seq.Complement(b))
						}
					}
					if i > 0 {
						if a := read[i-1]; fwd {
							rec.l = string(seq.Complement(a))
						} else {
							rec.r = string(a)
						}
					}
					// The key is the value's prefix: one string to
					// retain per record, not two.
					v := rec.marshal()
					emit(mapreduce.KV{Key: v[:k], Value: v})
				}
			}
		},
		Reduce: func(key string, values []string, emit func(mapreduce.KV)) {
			merged := record{seq: key}
			for _, v := range values {
				rec, err := parseRecord(v)
				if err != nil {
					continue
				}
				merged.count += rec.count
				for i := 0; i < len(rec.l); i++ {
					merged.l = addBase(merged.l, rec.l[i])
				}
				for i := 0; i < len(rec.r); i++ {
					merged.r = addBase(merged.r, rec.r[i])
				}
			}
			emit(mapreduce.KV{Key: key, Value: merged.marshal()})
		},
	}
}

// filterJob is the second job of the chain: the coverage cutoff.
func filterJob(minCov int64, reducers int) mapreduce.Job {
	return mapreduce.Job{
		Name:        "contrail-filter",
		NumReducers: reducers,
		Map: func(kv mapreduce.KV, emit func(mapreduce.KV)) {
			rec, err := parseRecord(kv.Value)
			if err != nil || rec.count < minCov {
				return
			}
			emit(kv)
		},
		Reduce: passThroughReduce,
	}
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
	rounds := float64(ct.CompressionRounds)
	if rounds <= 0 {
		rounds = defaultRounds
	}

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
	compress := rounds * (nodeVolume/(mapRate*slots) + nodeVolume/(reduceRate*slots))
	finalize := nodeVolume/(10*mapRate*slots) + nodeVolume/(25*reduceRate)
	setups := (3 + rounds) * setup
	return assembler.Result{
		TTC:                 vclock.Duration(build + filter + compress + finalize + setups),
		PeakMemoryGBPerNode: memoryGB(req),
	}, nil
}

// notBase reports whether r is anything but A, C, G or T.
func notBase(r rune) bool {
	_, ok := seq.Code(byte(r))
	return !ok || r > 0x7F
}

// passThroughReduce re-emits every value under its key.
func passThroughReduce(key string, values []string, emit func(mapreduce.KV)) {
	for _, v := range values {
		emit(mapreduce.KV{Key: key, Value: v})
	}
}

func mustDur(v, def float64) vclock.Duration {
	if v > 0 {
		return vclock.Duration(v)
	}
	return vclock.Duration(def)
}
