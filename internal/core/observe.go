package core

import (
	"fmt"

	"rnascale/internal/faults"
	"rnascale/internal/obs"
	"rnascale/internal/pilot"
	"rnascale/internal/vclock"
)

// Metric names the pipeline emits on top of the provider's and pilot
// framework's own (see README's Observability section).
const (
	MetricReadsProcessed     = "rnascale_reads_processed_total"
	MetricBasesProcessed     = "rnascale_bases_processed_total"
	MetricAssemblerMessages  = "rnascale_assembler_messages_total"
	MetricAssemblerBytesSent = "rnascale_assembler_bytes_sent_total"
	MetricRunTTC             = "rnascale_run_ttc_seconds"
	MetricRunCost            = "rnascale_run_cost_usd"
	MetricRunInstanceHours   = "rnascale_run_instance_hours"
)

// stageScope brackets one pipeline stage: a span under the run span,
// the parent for pilots registered during the stage, and the cloud
// bill delta attributed to it.
type stageScope struct {
	pl         *Pipeline
	span       *obs.Span
	costBefore float64
}

// beginStage opens a stage span at the current virtual time and
// points newly registered pilots at it. The stage boundary is also a
// journal checkpoint.
func (pl *Pipeline) beginStage(name string) *stageScope {
	sc := &stageScope{pl: pl, costBefore: pl.provider.TotalCost()}
	sc.span = pl.o.Tracer.StartSpan(pl.runSpan, obs.KindStage, name, pl.clock.Now())
	pl.bridge.SetParent(sc.span)
	pl.jr.stageStart(name)
	return sc
}

// attr annotates the stage span.
func (sc *stageScope) attr(key, value string) { sc.span.SetAttr(key, value) }

// end closes the stage at the current virtual time, attributing the
// bill growth since beginStage to it, and checkpoints the boundary —
// with note, empty unless the stage failed — in the run journal.
func (sc *stageScope) end(note string) {
	sc.span.SetAttr(obs.AttrCostUSD, fmt.Sprintf("%.4f", sc.pl.provider.TotalCost()-sc.costBefore))
	sc.span.End(sc.pl.clock.Now())
	sc.pl.jr.stageEnd(sc.span.Name, note)
}

// fail marks and closes the stage after a stage-level failure.
func (sc *stageScope) fail(err error) {
	sc.span.SetAttr("error", err.Error())
	sc.end(err.Error())
}

// counter is shorthand for a pipeline-level counter.
func (pl *Pipeline) counter(name, help string, labels obs.Labels) *obs.Counter {
	return pl.o.Metrics.Counter(name, help, labels)
}

// finishObs stamps the run-level gauges, closes the run span and
// folds everything into the report's snapshot. Called exactly once
// per run from Report.finish.
func (pl *Pipeline) finishObs(rep *Report) {
	now := pl.clock.Now()
	pl.runSpan.SetAttrf("transcripts", "%d", len(rep.Transcripts))
	pl.runSpan.End(now)
	m := pl.o.Metrics
	m.Gauge(MetricRunTTC, "End-to-end run TTC, virtual seconds.", nil).Set(vclock.Duration(now).Seconds())
	m.Gauge(MetricRunCost, "Total cloud bill for the run, USD.", nil).Set(pl.provider.TotalCost())
	m.Gauge(MetricRunInstanceHours, "Total billed instance-hours for the run.", nil).Set(pl.provider.TotalInstanceHours())
	rep.Recovery = pl.recoveryReport()
	snap := obs.Snapshot(pl.o.Tracer, m)
	if pl.jr.recording() {
		// The snapshot's Resumed marker is the one sanctioned delta
		// between a resumed run and its uninterrupted twin; the trace,
		// metrics and stage rows stay byte-identical.
		snap.Resumed = pl.jr.isResumed()
		st := pl.JournalStats()
		rep.Journal = &st
	}
	rep.Snapshot = &snap
}

// recoveryReport folds the fault/retry counters and the provider's
// interruption ledger into the report's recovery summary.
func (pl *Pipeline) recoveryReport() RecoveryReport {
	var rr RecoveryReport
	for _, pt := range pl.o.Metrics.Points() {
		switch pt.Name {
		case faults.MetricFaultsInjected:
			if rr.FaultsInjected == nil {
				rr.FaultsInjected = map[string]int{}
			}
			rr.FaultsInjected[pt.Labels["class"]] += int(pt.Value)
		case pilot.MetricRetries:
			rr.Retries += int(pt.Value)
		case pilot.MetricUnitsRecovered:
			rr.UnitsRecovered += int(pt.Value)
		}
	}
	for _, iv := range pl.provider.Interruptions() {
		if iv.Applied {
			rr.VMsLost++
		}
	}
	return rr
}
