// Package sara is the public facade of the SARA library — a
// reproduction of "SARA: Self-Aware Resource Allocation for Heterogeneous
// MPSoCs" (Song, Alavoine, Lin — DAC 2018).
//
// It re-exports the pieces a downstream user composes:
//
//   - building a heterogeneous MPSoC memory subsystem from a Config
//     (DRAM, per-channel memory controllers, on-chip network, DMAs with
//     traffic sources, performance meters and priority adapters),
//   - the six arbitration policies the paper evaluates,
//   - the pre-built camcorder test cases of Table 1/2,
//   - and the experiment harness that regenerates every figure.
//
// See examples/quickstart for the smallest complete program.
package sara

import (
	"sara/internal/analysis"
	"sara/internal/config"
	"sara/internal/core"
	"sara/internal/exp"
	"sara/internal/memctrl"
	"sara/internal/sim"
	"sara/internal/txn"
)

// Cycle is a point in simulated time (DRAM command-clock cycles).
type Cycle = sim.Cycle

// Priority is a 3-bit urgency level (0 = healthy, 7 = most urgent).
type Priority = txn.Priority

// Policy selects the arbitration policy for the memory controllers and
// the on-chip network.
type Policy = memctrl.PolicyKind

// The arbitration policies of the evaluation (Section 4).
const (
	// FCFS serves transactions in arrival order.
	FCFS = memctrl.FCFS
	// RR round-robins the five class queues.
	RR = memctrl.RR
	// FRFCFS is first-ready FCFS (row hits first).
	FRFCFS = memctrl.FRFCFS
	// FrameRate is the frame-rate-based QoS baseline [Jeong et al.].
	FrameRate = memctrl.FrameRate
	// QoS is the paper's Policy 1 (priority-based round-robin).
	QoS = memctrl.QoS
	// QoSRB is the paper's Policy 2 (Policy 1 + row-buffer optimization).
	QoSRB = memctrl.QoSRB
)

// Config is a whole-system configuration.
type Config = core.Config

// DMASpec describes one DMA: its core, queue class, traffic shape, QoS
// meter parameters and optional custom NPI-to-priority table.
type DMASpec = core.DMASpec

// SourceSpec describes a DMA's traffic generator.
type SourceSpec = core.SourceSpec

// Traffic generator kinds.
const (
	// SrcFrame is a bursty whole-frame engine (frame-progress QoS).
	SrcFrame = core.SrcFrame
	// SrcDisplay is a constant-rate read-buffer refill engine.
	SrcDisplay = core.SrcDisplay
	// SrcCamera is a constant-rate write-buffer drain engine.
	SrcCamera = core.SrcCamera
	// SrcSporadic is a latency-sensitive sporadic engine.
	SrcSporadic = core.SrcSporadic
	// SrcRate is a steady bandwidth engine.
	SrcRate = core.SrcRate
	// SrcChunk is a periodic work-chunk engine with a deadline.
	SrcChunk = core.SrcChunk
	// SrcCPU is best-effort background traffic.
	SrcCPU = core.SrcCPU
)

// System is a fully wired simulation instance.
type System = core.System

// Unit is one assembled DMA with its engine, source, meter and adapter.
type Unit = core.Unit

// Probes is one subscriber's set of trace-edge observers (NoC grants,
// credits, stalls and sleep windows, DMA injections and wakes, DRAM
// commands); subscribe it to one System with System.Probe.
type Probes = core.Probes

// Build assembles a System from a Config.
func Build(cfg Config) *System { return core.Build(cfg) }

// BuildParallel assembles the domain-parallel System: one domain per
// memory channel, run on workers goroutines synchronized at
// conservative-lookahead epoch barriers. Results are bit-identical
// across worker counts; unpartitionable configs fall back to the serial
// kernel. See core.BuildParallel.
func BuildParallel(cfg Config, workers int) *System { return core.BuildParallel(cfg, workers) }

// PartitionPlan describes how a config shards into per-channel domains.
type PartitionPlan = core.PartitionPlan

// Partition reports the per-channel domain decomposition of a config,
// or ok=false when the topology cannot be safely sharded.
func Partition(cfg Config) (PartitionPlan, bool) { return core.Partition(cfg) }

// Case identifies one of the paper's test cases.
type Case = config.Case

// The two Table 1 test cases.
const (
	// CaseA runs all cores with DRAM at 1866 MT/s.
	CaseA = config.CaseA
	// CaseB disables GPS/camera/rotator/JPEG at 1700 MT/s.
	CaseB = config.CaseB
)

// Option adjusts a generated configuration.
type Option = config.Option

// Camcorder returns the paper's camcorder use case (Fig. 2 at 30 fps)
// for the given test case.
func Camcorder(tc Case, opts ...Option) Config { return config.Camcorder(tc, opts...) }

// Saturated returns the bandwidth-bound Fig. 8 variant of case A.
func Saturated(opts ...Option) Config { return config.Saturated(opts...) }

// ScaleSoC grows a configuration to factor× channels and DMA-roster
// copies (factor must be a power of two); see config.ScaleSoC.
func ScaleSoC(cfg Config, factor int) Config { return config.ScaleSoC(cfg, factor) }

// ScaledCamcorder returns the camcorder use case at factor× scale.
func ScaledCamcorder(tc Case, factor int, opts ...Option) Config {
	return config.ScaledCamcorder(tc, factor, opts...)
}

// ScaledSaturated returns the saturated Fig. 8 workload at factor× scale
// — the loaded-phase scaling benchmark.
func ScaledSaturated(factor int, opts ...Option) Config {
	return config.ScaledSaturated(factor, opts...)
}

// Configuration options, re-exported from internal/config.
var (
	// WithPolicy selects the arbitration policy.
	WithPolicy = config.WithPolicy
	// WithSeed sets the workload seed.
	WithSeed = config.WithSeed
	// WithScaleDiv sets the time-scaling factor (default 32).
	WithScaleDiv = config.WithScaleDiv
	// WithDataRate overrides the DRAM data rate in MT/s.
	WithDataRate = config.WithDataRate
	// WithRefresh enables LPDDR4 all-bank refresh (tREFI/tRFC) with the
	// JEDEC defaults for the configured data rate.
	WithRefresh = config.WithRefresh
	// WithDelta overrides Policy 2's row-buffer threshold.
	WithDelta = config.WithDelta
	// WithPriorityBits overrides the priority quantization k.
	WithPriorityBits = config.WithPriorityBits
	// WithAgingT overrides the starvation limit.
	WithAgingT = config.WithAgingT
	// WithAdaptInterval overrides the adaptation period.
	WithAdaptInterval = config.WithAdaptInterval
	// WithDomainWorkers selects the domain-parallel kernel (>= 2 workers).
	WithDomainWorkers = config.WithDomainWorkers
)

// Experiments re-exports the per-figure harness.

// ExpOptions tunes experiment fidelity versus runtime.
type ExpOptions = exp.Options

// PolicyRun is one (test case, policy) experiment outcome.
type PolicyRun = exp.PolicyRun

// FreqHistogram is one bar of the Fig. 7 sweep.
type FreqHistogram = exp.FreqHistogram

// BandwidthResult is one bar of the Fig. 8 comparison.
type BandwidthResult = exp.BandwidthResult

var (
	// DefaultExpOptions is the standard experiment fidelity.
	DefaultExpOptions = exp.DefaultOptions
	// FastExpOptions is the reduced fidelity used by tests.
	FastExpOptions = exp.FastOptions
	// RunPolicy measures one test case under one policy.
	RunPolicy = exp.RunPolicy
	// Fig5 regenerates Fig. 5 (case A, four policies).
	Fig5 = exp.Fig5
	// Fig6 regenerates Fig. 6 (case B, four policies).
	Fig6 = exp.Fig6
	// Fig7 regenerates Fig. 7 (priority distribution vs DRAM frequency).
	Fig7 = exp.Fig7
	// Fig8 regenerates Fig. 8 (bandwidth by scheduling policy).
	Fig8 = exp.Fig8
	// Fig9 regenerates Fig. 9 (FR-FCFS vs QoS-RB).
	Fig9 = exp.Fig9
	// FormatRun renders a PolicyRun as text.
	FormatRun = exp.FormatRun
	// FormatFig7 renders the Fig. 7 sweep as text.
	FormatFig7 = exp.FormatFig7
	// FormatFig8 renders the Fig. 8 bars as text.
	FormatFig8 = exp.FormatFig8
)

// Crash safety re-exports: the run supervisor, its typed failures and
// the checkpoint journal (see README "Crash safety & resume").

// Cell identifies one point of a sweep grid: a (case, policy, data rate,
// seed, scale, saturated) simulation.
type Cell = exp.Cell

// RunError reports one failed, contained sweep cell, ending with the
// exact one-line rerun command.
type RunError = exp.RunError

// Watchdog bounds a kernel run with cycle, wall-clock and progress
// budgets; install with System.SetWatchdog and drive the run through
// System.RunChecked / RunFramesChecked.
type Watchdog = sim.Watchdog

// DeadlockError reports a watchdog trip, with a per-idler wake-state
// diagnostic dump.
type DeadlockError = sim.DeadlockError

// PanicError wraps a panic recovered at the run boundary.
type PanicError = sim.PanicError

var (
	// RunCells measures a sweep grid under the run supervisor, with
	// optional per-cell budgets, retries and checkpoint journaling.
	RunCells = exp.RunCells
	// FailedRuns collects the contained failures of a supervised grid.
	FailedRuns = exp.Failed
	// OpenJournal opens (creating if absent) a checkpoint journal.
	OpenJournal = exp.OpenJournal
)

// Observability re-exports: the analysis layer and the live sweep
// monitor (see README "Observability").

// Analyzer aggregates windowed occupancy/backpressure/stall-attribution
// statistics for one System; attach with AttachAnalyzer before running.
type Analyzer = analysis.Analyzer

// AnalysisOptions configures an Analyzer: aggregation window, whether the
// System's trace edges are tapped, and an optional live publisher.
type AnalysisOptions = analysis.Options

// AnalysisReport is the serialized outcome of one analyzed run.
type AnalysisReport = analysis.Report

// AnalysisSnapshot is one live windowed view of an in-flight run.
type AnalysisSnapshot = analysis.Snapshot

// Monitor is the HTTP live monitor serving sweep progress and snapshots.
type Monitor = analysis.Monitor

// MonitorRun is one run's publish handle on a Monitor.
type MonitorRun = analysis.RunHandle

var (
	// AttachAnalyzer arms an Analyzer over a built System.
	AttachAnalyzer = analysis.Attach
	// NewMonitor returns an idle Monitor; Start serves it.
	NewMonitor = analysis.NewMonitor
	// WriteAnalysisJSON writes labeled reports as one JSON object.
	WriteAnalysisJSON = analysis.WriteReportsJSON
	// WriteAnalysisCSV writes labeled reports as `# label`-separated CSV.
	WriteAnalysisCSV = analysis.WriteReportsCSV
)
