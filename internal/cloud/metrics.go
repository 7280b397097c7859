package cloud

import (
	"fmt"

	"rnascale/internal/faults"
	"rnascale/internal/obs"
	"rnascale/internal/vclock"
)

// Metric names the provider emits (see the Observability section of
// README.md for the full rnascale_* naming scheme).
const (
	MetricVMBoots         = "rnascale_vm_boots_total"
	MetricVMTerminated    = "rnascale_vm_terminations_total"
	MetricVMHours         = "rnascale_vm_hours_billed_total"
	MetricCostUSD         = "rnascale_cost_usd_total"
	MetricIngressBytes    = "rnascale_ingress_bytes_total"
	MetricBootFailures    = "rnascale_vm_boot_failures_total"
	MetricVMInterruptions = "rnascale_vm_interruptions_total"
	MetricFnInvocations   = "rnascale_fn_invocations_total"
	MetricFnCostUSD       = "rnascale_fn_cost_usd_total"
)

// Boot-failure reasons, the "reason" label on MetricBootFailures. The
// two RunInstances rejection paths are distinct so a fault plan's
// injected failures can never be confused with (or double-counted
// against) account-limit rejections.
const (
	// BootFailLimit is the account instance-limit rejection
	// (Options.MaxInstances exceeded).
	BootFailLimit = "limit"
	// BootFailInjected is a fault-plan-injected capacity error.
	BootFailInjected = "injected"
)

// SetMetrics attaches a metric registry; the provider then emits
// lifecycle and billing counters on every API call. A nil registry
// detaches instrumentation.
func (p *Provider) SetMetrics(reg *obs.Registry) { p.metrics = reg }

// countBoot records a successful RunInstances call.
func (p *Provider) countBoot(typeName string, count int) {
	if p.metrics == nil {
		return
	}
	p.metrics.Counter(MetricVMBoots, "VMs booted, by instance type.",
		obs.Labels{"type": typeName}).Add(float64(count)) //rnavet:allow metriccard — typeName passed LookupType, so it is a name in the fixed instance-type catalogue (DefaultCatalog)
}

// countBootFailure records a rejected RunInstances call, labelled with
// the rejection path.
func (p *Provider) countBootFailure(typeName, reason string) {
	if p.metrics == nil {
		return
	}
	p.metrics.Counter(MetricBootFailures, "RunInstances calls rejected, by instance type and reason.",
		obs.Labels{"type": typeName, "reason": reason}).Inc() //rnavet:allow metriccard — typeName passed LookupType (the fixed DefaultCatalog) and reason is one of the two constants BootFailLimit and BootFailInjected
}

// countInterruption records an applied VM interruption.
func (p *Provider) countInterruption(vm *VM, class faults.Class) {
	if p.metrics == nil {
		return
	}
	p.metrics.Counter(MetricVMInterruptions, "VMs lost to injected interruptions, by type and fault class.",
		obs.Labels{"type": vm.Type.Name, "class": string(class)}).Inc() //rnavet:allow metriccard — Type.Name is from the fixed instance catalogue (DefaultCatalog); class is the faults.Class enum
}

// countTermination records a VM's final bill when it terminates,
// matching Bill.
func (p *Provider) countTermination(vm *VM) {
	if p.metrics == nil {
		return
	}
	// TerminatedAt can sit past the current clock (a VM killed while
	// still pending bills through its boot); evaluate at whichever is
	// later so the counter matches the final Bill.
	at := vclock.Max(p.clock.Now(), vm.TerminatedAt)
	hours := vm.BilledHours(at)
	labels := obs.Labels{"type": vm.Type.Name} //rnavet:allow metriccard — Type.Name is drawn from the fixed instance-type catalogue (DefaultCatalog), bounded by construction
	p.metrics.Counter(MetricVMTerminated, "VMs terminated, by instance type.", labels).Inc()
	p.metrics.Counter(MetricVMHours, "Instance-hours billed for terminated VMs.", labels).Add(hours)
	p.metrics.Counter(MetricCostUSD, "USD billed for terminated VMs.", labels).Add(hours * p.vmRate(vm, at))
}

// countInvocation records one serverless function invocation.
func (p *Provider) countInvocation(inv Invocation) {
	if p.metrics == nil {
		return
	}
	start := "warm"
	if inv.Cold {
		start = "cold"
	}
	labels := obs.Labels{"tier": fmt.Sprintf("%ggb", inv.TierGB), "start": start} //rnavet:allow metriccard — TierGB is one of the five fixed serverless memory tiers (FnMemoryTiersGB) and start is "cold" or "warm", so the label set is closed
	p.metrics.Counter(MetricFnInvocations, "Serverless invocations, by memory tier and start kind.", labels).Inc()
	p.metrics.Counter(MetricFnCostUSD, "USD billed for serverless invocations, by memory tier and start kind.", labels).Add(inv.USD)
}

// countIngress records bytes uploaded from the local server.
func (p *Provider) countIngress(n int64) {
	if p.metrics == nil || n <= 0 {
		return
	}
	p.metrics.Counter(MetricIngressBytes, "Bytes uploaded from the local server into the cloud.",
		nil).Add(float64(n))
}
