// Package kernelbench is the registry of fixed-seed microbenchmarks
// behind `make bench-gate`: BenchmarkKernels runs every kernel under
// `go test -bench -benchmem`, and cmd/benchgate compares that output
// with the committed BENCH_baseline.txt.
//
// Each kernel is one of the hot paths the ROADMAP's "raw speed" line
// targets — k-mer scanning, counting and DBG construction, FASTA/FASTQ
// parsing, the vclock slot scheduler, MPI collective rendezvous and
// the distributed assembly on top of it, Trinity's greedy assembly,
// the spot market's price walk, journal appends and the verifying
// read, a MapReduce job and the Contrail chain on top of it — run over
// a deterministic workload (a splitmix64-seeded synthetic genome, never
// math/rand), so that allocs/op and B/op are stable across runs and
// only ns/op carries machine noise; that split is what the gate's
// tolerances rest on.
package kernelbench

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"rnascale/internal/assembler"
	"rnascale/internal/assembler/contrail"
	"rnascale/internal/assembler/ray"
	"rnascale/internal/assembler/trinity"
	"rnascale/internal/cloud"
	"rnascale/internal/dbg"
	"rnascale/internal/journal"
	"rnascale/internal/mapreduce"
	"rnascale/internal/merge"
	"rnascale/internal/mpi"
	"rnascale/internal/quant"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// Kernel is one named microbenchmark: Setup builds the fixed-seed
// workload (unmeasured), and the returned op is the measured unit.
// Iters is the op count the whole-system benchmark (bench/) loops a
// kernel it times as a layer; the gate runs every kernel at 10 ops.
type Kernel struct {
	Name  string
	Iters int
	Setup func() func()
}

// rng is a splitmix64 generator — the same construction
// internal/faults splits its streams from. Kernel workloads seed it
// with constants so every revision measures byte-identical inputs.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// genome returns a deterministic random genome of n bases.
func genome(seed uint64, n int) []byte {
	r := &rng{s: seed}
	const bases = "ACGT"
	g := make([]byte, n)
	for i := range g {
		g[i] = bases[r.intn(4)]
	}
	return g
}

// shred cuts the genome into readLen-base reads at cov× coverage,
// tiling with a deterministic stagger.
func shred(g []byte, readLen, cov int) []seq.Read {
	var reads []seq.Read
	for c := 0; c < cov; c++ {
		offset := c * readLen / cov
		for start := offset; start+readLen <= len(g); start += readLen {
			reads = append(reads, seq.Read{
				ID:  fmt.Sprintf("r%d_%d", c, start),
				Seq: append([]byte(nil), g[start:start+readLen]...),
			})
		}
	}
	return reads
}

// miscall substitutes a base in about one per thousand positions of
// the reads, in place: the sequencing errors that give a graph its tips
// and bubbles.
func miscall(reads []seq.Read, seed uint64) []seq.Read {
	r := &rng{s: seed}
	for i := range reads {
		for j := range reads[i].Seq {
			if r.intn(1000) == 0 {
				reads[i].Seq[j] = "ACGT"[r.intn(4)]
			}
		}
	}
	return reads
}

// assemblies cuts n contig sets out of the transcripts, the way
// assemblies at n k-mer sizes cover the same genes: each set breaks
// every transcript at its own places, into pieces that overlap their
// neighbours, every third one on the reverse strand.
func assemblies(seed uint64, transcripts [][]byte, n int) [][]seq.FastaRecord {
	r := &rng{s: seed}
	sets := make([][]seq.FastaRecord, n)
	for s := range sets {
		for _, tx := range transcripts {
			for from := 0; from < len(tx); {
				to := min(from+150+r.intn(400), len(tx))
				piece := append([]byte(nil), tx[from:to]...)
				if r.intn(3) == 0 {
					piece = seq.ReverseComplement(piece)
				}
				sets[s] = append(sets[s], seq.FastaRecord{ID: fmt.Sprintf("a%d_%d", s, len(sets[s])), Seq: piece})
				if to == len(tx) {
					break
				}
				from = to - 30 - r.intn(60)
			}
		}
	}
	return sets
}

// transcriptome cuts n transcripts of 400-1400 bases out of a genome.
func transcriptome(seed uint64, n int) [][]byte {
	r := &rng{s: seed}
	g := genome(seed, 1500*n)
	out := make([][]byte, n)
	for i := range out {
		out[i] = g[1500*i:][:400+r.intn(1000)]
	}
	return out
}

// Kernels returns the benchmark registry in its canonical order.
func Kernels() []Kernel {
	return []Kernel{
		{
			// k-mer counting: the distinct-canonical-k-mer scan into one
			// seq.KmerTable.
			Name:  "seq.count_distinct",
			Iters: 40,
			Setup: func() func() {
				reads := shred(genome(1, 8192), 80, 3)
				coder := seq.MustKmerCoder(25)
				return func() {
					if coder.CountDistinct(reads) == 0 {
						panic("kernelbench: no k-mers")
					}
				}
			},
		},
		{
			// The rolling canonical window every k-mer consumer scans
			// its reads with, at a two-word k and with nothing behind
			// the callback.
			Name:  "seq.canonical_scan",
			Iters: 200,
			Setup: func() func() {
				reads := shred(genome(10, 8192), 80, 3)
				coder := seq.MustKmerCoder(47)
				return func() {
					var acc uint64
					for i := range reads {
						coder.ForEachCanonical(reads[i].Seq, func(_ int, canon seq.Kmer) bool {
							acc ^= canon.Lo
							return true
						})
					}
					if acc == 0 {
						panic("kernelbench: no k-mers")
					}
				}
			},
		},
		{
			// DBG construction: count k-mers into the graph and drop
			// error singletons.
			Name:  "dbg.build",
			Iters: 30,
			Setup: func() func() {
				reads := shred(genome(2, 8192), 80, 3)
				return func() {
					g, err := dbg.Build(reads, 31, 2)
					if err != nil {
						panic(err)
					}
					if g.Len() == 0 {
						panic("kernelbench: empty graph")
					}
				}
			},
		},
		{
			// Unitig extraction over a prebuilt graph (Unitigs does not
			// mutate the graph, so iterations are independent). minCount
			// 1 keeps the staggered shred's singly-covered windows so the
			// graph spans the genome — this kernel measures extraction,
			// not error filtering.
			Name:  "dbg.unitigs",
			Iters: 40,
			Setup: func() func() {
				reads := shred(genome(3, 8192), 80, 3)
				g, err := dbg.Build(reads, 31, 1)
				if err != nil {
					panic(err)
				}
				return func() {
					if len(g.Unitigs(100)) == 0 {
						panic("kernelbench: no unitigs")
					}
				}
			},
		},
		{
			// Graph simplification as rank 0 of an MPI assembly runs it:
			// tip clipping, bubble popping and the unitig walk over a
			// graph the size pcrispa's are (~10^5 k-mers), with the tips
			// and bubbles of miscalled reads. Simplification consumes the
			// graph, so each op first re-adds the counted k-mers to a
			// pre-sized one, as mpidbg does with the gathered survivors.
			Name:  "dbg.contigs",
			Iters: 8,
			Setup: func() func() {
				counted, err := dbg.Build(miscall(shred(genome(13, 100_000), 100, 12), 14), 31, 1)
				if err != nil {
					panic(err)
				}
				type kmerCount struct {
					km seq.Kmer
					n  uint32
				}
				var kmers []kmerCount
				coder := counted.Coder()
				for _, u := range counted.Unitigs(0) {
					coder.ForEachCanonical(u.Seq, func(_ int, canon seq.Kmer) bool {
						kmers = append(kmers, kmerCount{canon, counted.Coverage(canon)})
						return true
					})
				}
				return func() {
					g, err := dbg.NewSized(31, len(kmers))
					if err != nil {
						panic(err)
					}
					for _, kc := range kmers {
						g.AddCount(kc.km, kc.n)
					}
					if len(g.Contigs("bench", 62)) == 0 {
						panic("kernelbench: no contigs")
					}
				}
			},
		},
		{
			Name:  "seq.parse_fasta",
			Iters: 100,
			Setup: func() func() {
				recs := make([]seq.FastaRecord, 200)
				for i := range recs {
					recs[i] = seq.FastaRecord{
						ID:  fmt.Sprintf("contig%04d", i),
						Seq: genome(uint64(100+i), 400),
					}
				}
				var buf bytes.Buffer
				if err := seq.WriteFasta(&buf, recs, 80); err != nil {
					panic(err)
				}
				data := buf.Bytes()
				return func() {
					if _, err := seq.ParseFasta(bytes.NewReader(data)); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			Name:  "seq.parse_fastq",
			Iters: 100,
			Setup: func() func() {
				reads := shred(genome(4, 8192), 100, 2)
				var buf bytes.Buffer
				if err := seq.WriteFastq(&buf, reads); err != nil {
					panic(err)
				}
				data := buf.Bytes()
				return func() {
					if _, err := seq.ParseFastq(bytes.NewReader(data)); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			// The vclock list scheduler: the queueing model every
			// simulated runtime (SGE, boot workers, per-node cores)
			// funnels through.
			Name:  "vclock.slotpool",
			Iters: 40,
			Setup: func() func() {
				r := &rng{s: 5}
				ks := make([]int, 2048)
				ds := make([]vclock.Duration, len(ks))
				for i := range ks {
					ks[i] = 1 + r.intn(8)
					ds[i] = vclock.Duration(1 + r.intn(600))
				}
				return func() {
					pool := vclock.NewSlotPool(64)
					var at vclock.Time
					for i, k := range ks {
						at = pool.Acquire(k, at, ds[i])
					}
					if pool.Horizon() <= 0 {
						panic("kernelbench: empty schedule")
					}
				}
			},
		},
		{
			// MPI collective rendezvous: barrier + allreduce + alltoall
			// rounds over a 4-rank world, the communication pattern that
			// bounds the DBG assemblers' scale-out.
			Name:  "mpi.collective",
			Iters: 30,
			Setup: func() func() {
				return func() {
					_, err := mpi.Run(mpi.DefaultConfig(4), func(c *mpi.Comm) error {
						for round := 0; round < 8; round++ {
							c.Barrier()
							c.AllReduceInt(int64(c.Rank()+round), func(a, b int64) int64 { return a + b })
							payloads := make([]any, c.Size())
							sizes := make([]int64, c.Size())
							for d := range payloads {
								payloads[d] = round
								sizes[d] = 1 << 10
							}
							c.AlltoAll(payloads, sizes)
						}
						return nil
					})
					if err != nil {
						panic(err)
					}
				}
			},
		},
		{
			// The distributed DBG assembly both MPI assemblers run: 8
			// ranks count their shards into per-owner tables, exchange
			// them, merge, gather the survivors, and rank 0 simplifies
			// and walks the graph.
			Name:  "mpidbg.assemble",
			Iters: 10,
			Setup: func() func() {
				req := assembler.Request{
					Reads:  shred(genome(11, 8192), 80, 6),
					Params: assembler.Params{K: 31, MinCoverage: 2},
					Nodes:  1, CoresPerNode: 8,
					FullScale: simdata.FullScaleStats{SeqDataBytes: 64 << 20},
				}
				return func() {
					res, err := (&ray.Ray{}).Assemble(req)
					if err != nil {
						panic(err)
					}
					if len(res.Contigs) == 0 {
						panic("kernelbench: no contigs")
					}
				}
			},
		},
		{
			// Trinity's single-node assembly: count canonical k-mers,
			// drop those under the cutoff, and walk Inchworm's greedy
			// extensions from every unused seed, most abundant first.
			Name:  "trinity.assemble",
			Iters: 20,
			Setup: func() func() {
				req := assembler.Request{
					Reads:  miscall(shred(genome(19, 8192), 80, 6), 20),
					Params: assembler.Params{K: 21, MinCoverage: 2},
					Nodes:  1, CoresPerNode: 8,
					FullScale: simdata.FullScaleStats{SeqDataBytes: 64 << 20},
				}
				return func() {
					res, err := (&trinity.Trinity{}).Assemble(req)
					if err != nil {
						panic(err)
					}
					if len(res.Contigs) == 0 {
						panic("kernelbench: no contigs")
					}
				}
			},
		},
		{
			// The post-assembly merge at the shape pcrispa gives it: 4
			// assemblies of 60 transcripts (~600 contigs, ~200k bases),
			// most contigs contained in a longer one from another
			// assembly, the rest joined by their overlaps.
			Name:  "merge.merge",
			Iters: 8,
			Setup: func() func() {
				sets := assemblies(15, transcriptome(16, 60), 4)
				return func() {
					out, st := merge.Merge(sets, merge.DefaultOptions())
					if len(out) == 0 || st.Contained == 0 || st.Joined == 0 {
						panic("kernelbench: merge did nothing")
					}
				}
			},
		},
		{
			// Quantification: index ~100 transcripts, pseudo-align 12k
			// miscalled 100-base reads off both strands by k-mer votes.
			Name:  "quant.quantify",
			Iters: 8,
			Setup: func() func() {
				var transcripts []seq.FastaRecord
				var reads []seq.Read
				for i, tx := range transcriptome(17, 100) {
					transcripts = append(transcripts, seq.FastaRecord{ID: fmt.Sprintf("t%d", i), Seq: tx})
					reads = append(reads, shred(tx, 100, 14)...)
				}
				for i := range reads {
					if i%2 == 1 {
						reads[i].Seq = seq.ReverseComplement(reads[i].Seq)
					}
				}
				miscall(reads, 18)
				return func() {
					res, err := quant.Quantify(transcripts, reads, quant.DefaultOptions())
					if err != nil {
						panic(err)
					}
					if res.MappingRate() < 0.9 {
						panic("kernelbench: reads did not map")
					}
				}
			},
		},
		{
			// Spot-market price walk: the memoized per-AZ multiplicative
			// walk plus the windowed averages and launch-time reclaim
			// draws every spot bill funnels through. A fresh market per
			// op keeps the memoization from turning later iterations
			// into lookups.
			Name:  "cloud.spot_walk",
			Iters: 50,
			Setup: func() func() {
				it := cloud.C32XLarge
				return func() {
					m := cloud.NewSpotMarket(cloud.SpotOptions{Seed: 7})
					var acc float64
					for i := 0; i < 48; i++ {
						from := vclock.Time(i) * vclock.Time(600)
						to := from.Add(2 * vclock.Hour)
						az := m.CheapestAZ(from)
						acc += m.Price(it, az, from)
						acc += m.AvgFrac(az, from, to)
						if _, ok := m.ReclaimAt(fmt.Sprintf("i-%06d", i), az, from); ok {
							acc++
						}
					}
					if acc <= 0 {
						panic("kernelbench: degenerate price walk")
					}
				}
			},
		},
		{
			// Journal append without fsync: the marshal+hash+write path
			// (durability cost is the disk's, not the kernel's).
			Name:  "journal.append",
			Iters: 100,
			Setup: func() func() {
				return func() {
					w := journal.NewWriter(io.Discard)
					for i := 0; i < 256; i++ {
						if _, err := w.Append(journal.Record{
							Kind:  journal.KindUnit,
							Stage: "PB",
							Unit:  "unit-0001",
							VTime: float64(i),
						}); err != nil {
							panic(err)
						}
					}
				}
			},
		},
		{
			// Contended group commit: 8 goroutines racing Append through
			// the batch-64 flusher, the coalescing path the gateway's
			// event log and concurrent pipeline stages exercise. Sync is
			// a no-op so the kernel measures batching overhead (queueing,
			// wakeups, chain computation), not disk latency.
			Name:  "journal.append_contended",
			Iters: 50,
			Setup: func() func() {
				return func() {
					w := journal.NewSyncedWriter(io.Discard, func() error { return nil },
						journal.Options{BatchSize: 64})
					var wg sync.WaitGroup
					for g := 0; g < 8; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							for i := 0; i < 32; i++ {
								if _, err := w.Append(journal.Record{
									Kind:  journal.KindUnit,
									Stage: "PB",
									Unit:  fmt.Sprintf("unit-%d", g),
									VTime: float64(i),
								}); err != nil {
									panic(err)
								}
							}
						}(g)
					}
					wg.Wait()
					if err := w.Close(); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			// Contended group commit of payload-bearing records: 8
			// goroutines each appending 8 records of 64 KiB, the shape of
			// a pipeline journal's stage records. Sync is a no-op, so the
			// kernel measures what the flusher does with the payloads; it
			// writes each where the appender holds it, copying none.
			Name:  "journal.append_payload",
			Iters: 20,
			Setup: func() func() {
				payload := genome(10, 64<<10)
				return func() {
					w := journal.NewSyncedWriter(io.Discard, func() error { return nil }, journal.Options{})
					var wg sync.WaitGroup
					for g := 0; g < 8; g++ {
						wg.Add(1)
						go func(g int) {
							defer wg.Done()
							for i := 0; i < 8; i++ {
								if _, err := w.Append(journal.Record{
									Kind:    journal.KindUnit,
									Stage:   "PB",
									Unit:    fmt.Sprintf("unit-%d", g),
									VTime:   float64(i),
									Payload: payload,
								}); err != nil {
									panic(err)
								}
							}
						}(g)
					}
					wg.Wait()
					if err := w.Close(); err != nil {
						panic(err)
					}
				}
			},
		},
		{
			// Journal read side: the single verifying scan (header JSON,
			// payload framing, one hash per record's bytes, chain link
			// and Merkle leaf) over 64 records carrying 64 KB payloads,
			// from memory — the shape of a pipeline journal, whose bytes
			// are nearly all payload. Read holds the whole journal: the
			// records' payloads alias it.
			Name:  "journal.read",
			Iters: 20,
			Setup: func() func() {
				data := verifyJournal()
				return func() {
					lg, err := journal.Read(bytes.NewReader(data))
					if err != nil || len(lg.Records) != 64 {
						panic(fmt.Sprintf("kernelbench: journal read back %v", err))
					}
				}
			},
		},
		{
			// The same journal verified from a file, streamed through
			// one read buffer: what `rnapipe -verify-journal` and the
			// replay benchmark run, which holds no payload.
			Name:  "journal.verify",
			Iters: 20,
			Setup: func() func() {
				dir, err := scratchDir()
				if err != nil {
					panic(err)
				}
				path := filepath.Join(dir, "verify.journal")
				if err := os.WriteFile(path, verifyJournal(), 0o644); err != nil {
					panic(err)
				}
				return func() {
					vr, err := journal.Verify(path)
					if err != nil || !vr.Clean() || vr.Records != 64 {
						panic(fmt.Sprintf("kernelbench: journal verify %v: %v", err, vr))
					}
				}
			},
		},
		{
			// One MapReduce job through the Combine path: count canonical
			// k-mers (the first thing Contrail does with its reads) over
			// several map splits and reducers, so the sort-group combiner,
			// copy-once shuffle, per-partition sort and output merge all run.
			Name:  "mapreduce.kmercount",
			Iters: 20,
			Setup: func() func() {
				const k = 25
				reads := shred(genome(8, 8192), 80, 3)
				input := make([]mapreduce.KV, len(reads))
				for i, r := range reads {
					input[i] = mapreduce.KV{Key: r.ID, Value: string(r.Seq)}
				}
				cfg := mapreduce.DefaultConfig(4)
				cfg.SplitBytes = 4 << 10
				engine, err := mapreduce.NewEngine(cfg)
				if err != nil {
					panic(err)
				}
				sum := func(values []string) string {
					total := 0
					for _, v := range values {
						n, _ := strconv.Atoi(v)
						total += n
					}
					return strconv.Itoa(total)
				}
				job := mapreduce.Job{
					Name: "kernelbench-kmercount",
					Map: func(kv mapreduce.KV, emit func(mapreduce.KV)) {
						for i := 0; i+k <= len(kv.Value); i++ {
							w := kv.Value[i : i+k]
							if rc := string(seq.ReverseComplement([]byte(w))); rc < w {
								w = rc
							}
							emit(mapreduce.KV{Key: w, Value: "1"})
						}
					},
					Combine: func(_ string, values []string) []string { return []string{sum(values)} },
					Reduce: func(key string, values []string, emit func(mapreduce.KV)) {
						emit(mapreduce.KV{Key: key, Value: sum(values)})
					},
				}
				return func() {
					res, err := engine.Run(job, input)
					if err != nil {
						panic(err)
					}
					if len(res.Output) == 0 || res.MapTasks < 2 {
						panic("kernelbench: degenerate k-mer count job")
					}
				}
			},
		},
		{
			// The whole Contrail chain — build, filter, compression
			// rounds, finalize — on a small cluster: the record codec
			// and the engine's no-Combine path under real job shapes.
			Name:  "contrail.assemble",
			Iters: 5,
			Setup: func() func() {
				req := assembler.Request{
					Reads:  shred(genome(9, 8192), 80, 6),
					Params: assembler.Params{K: 31},
					Nodes:  4, CoresPerNode: 8,
					FullScale: simdata.FullScaleStats{SeqDataBytes: 64 << 20},
				}
				return func() {
					res, err := (&contrail.Contrail{}).Assemble(req)
					if err != nil {
						panic(err)
					}
					if len(res.Contigs) == 0 {
						panic("kernelbench: no contigs")
					}
				}
			},
		},
	}
}

// verifyJournal is the journal kernels' input: a header record, then
// 63 unit records each carrying the same 64 KB payload.
func verifyJournal() []byte {
	payload := genome(9, 64<<10)
	var data bytes.Buffer
	w := journal.NewWriter(&data)
	for i := 0; i < 64; i++ {
		rec := journal.Record{Kind: journal.KindUnit, Stage: "PB", Unit: "unit-0001", VTime: float64(i), Payload: payload}
		if i == 0 {
			rec = journal.Record{Kind: journal.KindHeader}
		}
		if _, err := w.Append(rec); err != nil {
			panic(err)
		}
	}
	return data.Bytes()
}

// scratchDir is where file-backed kernels keep their inputs, made on
// first use; the package's tests remove it when they finish.
var scratchDir = sync.OnceValues(func() (string, error) { return os.MkdirTemp("", "kernelbench-") })
