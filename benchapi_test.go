package rnascale_test

// bench/ is a module of its own, so `go build ./... && go test ./...`
// here never compiles it, yet it imports rnascale/internal/... and a
// refactor that renames or retypes something it uses breaks the
// benchmark the next change is judged with. This file holds one typed
// reference to every function, method, field and constant bench/*.go
// selects from an rnascale/internal package (the list is what a type
// check of bench/ resolves into those packages), so that such a
// refactor fails tier-1 first. It runs nothing.

import (
	"io"
	"net/http"

	"rnascale/internal/assembler"
	_ "rnascale/internal/assembler/all"
	"rnascale/internal/cloud"
	"rnascale/internal/core"
	"rnascale/internal/dbg"
	"rnascale/internal/detonate"
	"rnascale/internal/gateway"
	"rnascale/internal/journal"
	"rnascale/internal/kernelbench"
	"rnascale/internal/mapreduce"
	"rnascale/internal/merge"
	"rnascale/internal/mpi"
	"rnascale/internal/obs"
	"rnascale/internal/pilot"
	"rnascale/internal/preprocess"
	"rnascale/internal/quant"
	"rnascale/internal/seq"
	"rnascale/internal/simdata"
	"rnascale/internal/vclock"
)

// Functions, at the signatures bench/ calls them with.
var (
	_ func(string) (assembler.Assembler, error)                                                         = assembler.Get
	_ func() core.Config                                                                                = core.DefaultConfig
	_ func(core.Config, []cloud.Backend) []core.Config                                                  = core.ExpandBackends
	_ func(*simdata.Dataset, []core.Config) ([]core.Plan, error)                                        = core.Frontier
	_ func(*simdata.Dataset, core.Config) (core.Plan, error)                                            = core.Predict
	_ func(*simdata.Dataset, core.Config, string) (*core.Report, error)                                 = core.Resume
	_ func(*simdata.Dataset, core.Config) (*core.Report, error)                                         = core.Run
	_ func([]seq.Read, int, int) (*dbg.Graph, error)                                                    = dbg.Build
	_ func() detonate.Options                                                                           = detonate.DefaultOptions
	_ func([]seq.FastaRecord, []seq.FastaRecord, []float64, detonate.Options) (detonate.Metrics, error) = detonate.Evaluate
	_ func(int) *gateway.Server                                                                         = gateway.NewServer
	_ func(string, journal.Options) (*journal.Writer, error)                                            = journal.CreateOptions
	_ func(io.Writer, func() error, journal.Options) *journal.Writer                                    = journal.NewSyncedWriter
	_ func(string) (*journal.Log, error)                                                                = journal.Open
	_ func(string) (journal.VerifyResult, error)                                                        = journal.Verify
	_ func() []kernelbench.Kernel                                                                       = kernelbench.Kernels
	_ func(int) mapreduce.Config                                                                        = mapreduce.DefaultConfig
	_ func(mapreduce.Config) (*mapreduce.Engine, error)                                                 = mapreduce.NewEngine
	_ func() merge.Options                                                                              = merge.DefaultOptions
	_ func([][]seq.FastaRecord, merge.Options) ([]seq.FastaRecord, merge.Stats)                         = merge.Merge
	_ func(int) mpi.Config                                                                              = mpi.DefaultConfig
	_ func(mpi.Config, func(*mpi.Comm) error) (mpi.Result, error)                                       = mpi.Run
	_ func() *obs.Obs                                                                                   = obs.New
	_ func(seq.ReadSet, preprocess.Options) (seq.ReadSet, preprocess.Stats)                             = preprocess.Run
	_ func() quant.Options                                                                              = quant.DefaultOptions
	_ func([]seq.FastaRecord, []seq.Read, quant.Options) (*quant.Result, error)                         = quant.Quantify
	_ func([]byte) int                                                                                  = seq.CountN
	_ func(int) (seq.KmerCoder, error)                                                                  = seq.NewKmerCoder
	_ func(io.Reader) ([]seq.Read, error)                                                               = seq.ParseFastq
	_ func([]byte) []byte                                                                               = seq.ReverseComplement
	_ func(io.Writer, []seq.FastaRecord, int) error                                                     = seq.WriteFasta
	_ func(io.Writer, []seq.Read) error                                                                 = seq.WriteFastq
	_ func() simdata.Profile                                                                            = simdata.BGlumae
	_ func() simdata.Profile                                                                            = simdata.PCrispa
	_ func() simdata.Profile                                                                            = simdata.Tiny
	_ func(simdata.Profile) (*simdata.Dataset, error)                                                   = simdata.Generate
	_ func(simdata.Profile) (*simdata.Dataset, error)                                                   = simdata.GenerateCached
)

// Methods.
var (
	_ func(*dbg.Graph) int                                                             = (*dbg.Graph).Len
	_ func(*dbg.Graph, int) []dbg.Unitig                                               = (*dbg.Graph).Unitigs
	_ func(*gateway.Server) error                                                      = (*gateway.Server).Close
	_ func(*gateway.Server, string) error                                              = (*gateway.Server).EnableJournal
	_ func(*gateway.Server) http.Handler                                               = (*gateway.Server).Handler
	_ func(*journal.Writer, journal.Record) (journal.Record, error)                    = (*journal.Writer).Append
	_ func(*journal.Writer) error                                                      = (*journal.Writer).Close
	_ func(*mapreduce.Engine, mapreduce.Job, []mapreduce.KV) (mapreduce.Result, error) = (*mapreduce.Engine).Run
	_ func(*mpi.Comm, []any, []int64) []any                                            = (*mpi.Comm).AlltoAll
	_ func(*mpi.Comm) int                                                              = (*mpi.Comm).Rank
	_ func(*mpi.Comm) int                                                              = (*mpi.Comm).Size
	_ func(*obs.Registry, io.Writer) error                                             = (*obs.Registry).WritePrometheus
	_ func(*obs.Tracer) int                                                            = (*obs.Tracer).Len
	_ func(*obs.Tracer, io.Writer) error                                               = (*obs.Tracer).WriteChromeTrace
	_ func(*quant.Result) float64                                                      = (*quant.Result).MappingRate
	_ func(*seq.ReadSet) int64                                                         = (*seq.ReadSet).TotalBases
	_ func(assembler.Assembler, assembler.Request) (assembler.Result, error)           = assembler.Assembler.Assemble
	_ func(core.StageReport) vclock.Duration                                           = core.StageReport.Duration
	_ func(journal.VerifyResult) bool                                                  = journal.VerifyResult.Clean
	_ func(seq.KmerCoder, []seq.Read) int                                              = seq.KmerCoder.CountDistinct
	_ func(vclock.Duration) float64                                                    = vclock.Duration.Seconds
)

// Constants and variables.
var (
	_ string            = gateway.MetricRunsQueueWait
	_ gateway.RunStatus = gateway.StatusDone
	_ gateway.RunStatus = gateway.StatusFailed
	_ gateway.RunStatus = gateway.StatusShed
	_ vclock.Duration   = vclock.Second
	_ int               = cloud.C32XLarge.Cores
)

// Fields, at the types bench/ reads and writes them with.
var (
	_ = assembler.Request{
		Reads: []seq.Read(nil), Params: assembler.Params{K: int(0), MinCoverage: int(0)},
		Nodes: int(0), CoresPerNode: int(0), FullScale: simdata.FullScaleStats{},
	}
	_ = assembler.Result{Contigs: []seq.FastaRecord(nil), Messages: int64(0), BytesSent: int64(0)}
	_ = cloud.BillLine{InstanceHours: float64(0)}
	_ = core.Config{
		Assemblers: []string(nil), ContrailNodes: int(0), Deadline: vclock.Duration(0),
		EvaluateAgainstTruth: false, FaultSeed: uint64(0), Journal: (*journal.Writer)(nil),
		MinCoverage: int(0), NodesPerMPIJob: int(0), Obs: (*obs.Obs)(nil), Preprocess: preprocess.Options{},
	}
	_ = core.Report{
		Bill: []cloud.BillLine(nil), Config: core.Config{}, CostUSD: float64(0), Events: []pilot.Event(nil),
		Journal: (*core.JournalStats)(nil), KmersUsed: []int(nil), Metrics: (*detonate.Metrics)(nil),
		Outcome: core.Outcome(""), Stages: []core.StageReport(nil), TTC: vclock.Duration(0),
		Transcripts: []seq.FastaRecord(nil),
	}
	_ = core.JournalStats{UnitsExecuted: int(0), UnitsReplayed: int(0)}
	_ = core.StageReport{Name: ""}
	_ = detonate.Options{ReadBases: int64(0)}
	_ = gateway.RunRequest{Profile: "", Assemblers: []string(nil), DeadlineSeconds: float64(0)}
	_ = gateway.RunView{
		ID: "", Status: gateway.RunStatus(""), Outcome: "", Error: "", CostUSD: float64(0),
		TTCSeconds: float64(0), Transcripts: int(0), Stages: map[string]string(nil),
	}
	_ = journal.Log{Records: []journal.Record(nil)}
	_ = kernelbench.Kernel{Name: "", Iters: int(0), Setup: (func() func())(nil)}
	_ = mapreduce.Job{
		Name:    "",
		Map:     (func(mapreduce.KV, func(mapreduce.KV)))(nil),
		Combine: (func(string, []string) []string)(nil),
		Reduce:  (func(string, []string, func(mapreduce.KV)))(nil),
	}
	_ = mapreduce.KV{Key: "", Value: ""}
	_ = mapreduce.Config{SplitBytes: int64(0)}
	_ = mapreduce.Result{MapTasks: int(0), ShuffleBytes: int64(0)}
	_ = mpi.Result{Stats: mpi.Stats{Messages: int64(0)}}
	_ = obs.Obs{Metrics: (*obs.Registry)(nil), Tracer: (*obs.Tracer)(nil)}
	_ = preprocess.Stats{OutputReads: int(0)}
	_ = seq.Read{ID: "", Seq: []byte(nil)}
	_ = seq.ReadSet{Paired: false, Reads: []seq.Read(nil)}
	_ = simdata.Dataset{
		Annotations: []seq.FastaRecord(nil), Expression: []float64(nil),
		Profile: simdata.Profile{FullScale: simdata.FullScaleStats{PostPreprocessBytes: int64(0), SeqDataBytes: int64(0)}},
		Reads:   seq.ReadSet{},
	}
)
