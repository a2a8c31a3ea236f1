package diam2

import (
	"diam2/internal/core"
	"diam2/internal/fluid"
	"diam2/internal/harness"
	"diam2/internal/partition"
	"diam2/internal/plot"
	"diam2/internal/routing"
	"diam2/internal/sim"
	"diam2/internal/telemetry"
	"diam2/internal/topo"
	"diam2/internal/traffic"
)

// Topology re-exports the topology abstraction.
type Topology = topo.Topology

// Topology implementations.
type (
	// SlimFly is the direct diameter-two MMS-graph topology.
	SlimFly = topo.SlimFly
	// MLFM is the Multi-Layer Full-Mesh.
	MLFM = topo.MLFM
	// OFT is the two-level Orthogonal Fat-Tree.
	OFT = topo.OFT
	// HyperX2D is the two-dimensional HyperX baseline.
	HyperX2D = topo.HyperX2D
	// FatTree2 is the full-bisection two-level Fat-Tree baseline.
	FatTree2 = topo.FatTree2
	// FatTree3 is the three-level Fat-Tree reference.
	FatTree3 = topo.FatTree3
	// DegradedTopology is a topology with failed links removed.
	DegradedTopology = topo.Degraded
)

// Rounding selects the Slim Fly endpoint count (floor or ceil of
// r'/2).
type Rounding = topo.Rounding

// Rounding choices.
const (
	RoundDown = topo.RoundDown
	RoundUp   = topo.RoundUp
)

// Topology constructors.
var (
	NewSlimFly    = topo.NewSlimFly
	NewMLFM       = topo.NewMLFM
	NewOFT        = topo.NewOFT
	NewHyperX2D   = topo.NewHyperX2D
	NewFatTree2   = topo.NewFatTree2
	NewFatTree3   = topo.NewFatTree3
	Degrade       = topo.Degrade
	NewCustom     = topo.NewCustom
	ReadEdgeList  = topo.ReadEdgeList
	WriteEdgeList = topo.WriteEdgeList
	WriteDOT      = topo.WriteDOT
)

// Cost metrics (Fig. 3).
type (
	// Cost summarizes network cost per endpoint.
	Cost = topo.Cost
	// ScalingEntry is one row of the Fig. 3 comparison.
	ScalingEntry = topo.ScalingEntry
)

// Analysis helpers.
var (
	CostOf         = topo.CostOf
	ScalingTable   = topo.ScalingTable
	MooreBound     = topo.MooreBound
	MooreFraction  = topo.MooreFraction
	VerifyDiameter = topo.VerifyDiameter
)

// SSPT class (the paper's Section 2.2.2 contribution).
type (
	// SPTPattern is a Single-Path Tree interconnection pattern.
	SPTPattern = core.Pattern
	// SSPT is a stacked SPT descriptor.
	SSPT = core.Stacked
)

// SSPT constructors.
var (
	FullMeshPattern = core.FullMeshPattern
	ML3BPattern     = core.ML3BPattern
	StackSPT        = core.Stack
)

// Routing algorithms (Section 3).
type (
	// MinimalRouting is oblivious minimal routing.
	MinimalRouting = routing.Minimal
	// ValiantRouting is oblivious indirect random routing.
	ValiantRouting = routing.Valiant
	// UGALRouting is the UGAL-L adaptive family.
	UGALRouting = routing.UGAL
	// UGALGlobalRouting is the idealized global-knowledge UGAL
	// variant (ablation upper bound).
	UGALGlobalRouting = routing.UGALGlobal
	// UGALConfig parameterizes the adaptive algorithms.
	UGALConfig = routing.UGALConfig
)

// VCPolicy selects the deadlock-avoidance VC assignment.
type VCPolicy = routing.VCPolicy

// VC policies (Section 3.4).
const (
	VCByHop   = routing.VCByHop
	VCByPhase = routing.VCByPhase
)

// Routing constructors and checks.
var (
	NewMinimal    = routing.NewMinimal
	NewValiant    = routing.NewValiant
	NewUGAL       = routing.NewUGAL
	NewUGALGlobal = routing.NewUGALGlobal
	CDGAcyclic    = routing.CDGAcyclic
)

// Simulator types.
type (
	// SimConfig is the switch/link parameterization.
	SimConfig = sim.Config
	// Network is the instantiated simulator state.
	Network = sim.Network
	// Engine is the cycle-driven simulator.
	Engine = sim.Engine
	// Results summarizes a run.
	Results = sim.Results
	// RoutingAlgorithm is the simulator's routing hook.
	RoutingAlgorithm = sim.RoutingAlgorithm
	// Workload drives injection.
	Workload = sim.Workload
)

// Simulator constructors.
var (
	DefaultSimConfig = sim.DefaultConfig
	TestSimConfig    = sim.TestConfig
	NewNetwork       = sim.NewNetwork
	NewEngine        = sim.NewEngine
)

// Traffic types (Section 4).
type (
	// Pattern maps sources to destinations.
	Pattern = traffic.Pattern
	// Uniform is global uniform random traffic.
	Uniform = traffic.Uniform
	// Permutation is a fixed source-to-destination mapping.
	Permutation = traffic.Permutation
	// OpenLoop is Bernoulli open-loop injection of a pattern.
	OpenLoop = traffic.OpenLoop
	// Exchange is a closed-loop message exchange.
	Exchange = traffic.Exchange
	// Torus3D is the nearest-neighbor process arrangement.
	Torus3D = traffic.Torus3D
	// Mapping is a process-rank to node assignment.
	Mapping = traffic.Mapping
)

// Traffic constructors.
var (
	WorstCase          = traffic.WorstCase
	RouterShift        = traffic.RouterShift
	AllToAll           = traffic.AllToAll
	AllToAllSequential = traffic.AllToAllSequential
	NewMapping         = traffic.NewMapping
	ContiguousMapping  = traffic.ContiguousMapping
	RandomMapping      = traffic.RandomMapping
	NearestNeighbor    = traffic.NearestNeighbor
	FitTorus3D         = traffic.FitTorus3D
)

// Harness types: presets, scales and experiment generators.
type (
	// Preset is one evaluated topology configuration.
	Preset = harness.Preset
	// Scale trades fidelity for speed.
	Scale = harness.Scale
	// AlgKind selects MIN/INR/A/ATh.
	AlgKind = harness.AlgKind
	// PatternKind selects UNI/WC.
	PatternKind = harness.PatternKind
	// ExchangeKind selects A2A/NN.
	ExchangeKind = harness.ExchangeKind
	// Curve is one swept series of runs (ResultTable.Curves, a ladder).
	Curve = harness.Curve
	// ResultTable is a renderable experiment output.
	ResultTable = harness.Table
	// Sched carries the experiment-scheduler knobs (worker count,
	// progress callback, cancellation) of Scale.Sched; the zero value
	// fans sweeps out across GOMAXPROCS / Scale.Cores workers with
	// byte-identical results for any worker count.
	Sched = harness.Sched
	// SweepProgress observes completed sweep points (Sched.OnPoint).
	SweepProgress = harness.Progress
)

// Harness enums.
const (
	AlgMIN = harness.AlgMIN
	AlgINR = harness.AlgINR
	AlgA   = harness.AlgA
	AlgATh = harness.AlgATh

	PatUNI = harness.PatUNI
	PatWC  = harness.PatWC

	ExA2A = harness.ExA2A
	ExNN  = harness.ExNN
)

// Harness entry points: one per paper exhibit, plus generic runners.
var (
	PaperPresets      = harness.PaperPresets
	SmallPresets      = harness.SmallPresets
	PaperScale        = harness.PaperScale
	QuickScale        = harness.QuickScale
	MediumScale       = harness.MediumScale
	RunSynthetic      = harness.RunSynthetic
	RunExchange       = harness.RunExchange
	SaturationPoint   = harness.SaturationPoint
	Table2ML3B        = harness.Table2ML3B
	Fig3Scalability   = harness.Fig3Scalability
	Fig4Bisection     = harness.Fig4Bisection
	Fig6Oblivious     = harness.Fig6Oblivious
	AdaptiveSweep     = harness.AdaptiveSweep
	FigExchange       = harness.FigExchange
	DiversityReport   = harness.DiversityReport
	BisectionEstimate = harness.BisectionEstimate
	DefaultLoads      = harness.DefaultLoads
	// DeriveSeed maps (base seed, point key) to a sweep point's seed —
	// the determinism contract behind parallel sweeps (DESIGN.md §9).
	DeriveSeed = harness.DeriveSeed
)

// Telemetry: the engine's one observer (DESIGN.md §11). A
// TelemetryCollector attaches to an engine (Engine.AttachTelemetry) or,
// via Scale.Telemetry, to every point of a sweep; it observes without
// perturbing — results are bit-identical with and without one attached.
// Per-link utilization is Snapshot().Links (hottest first) and
// per-packet routes are the inject/route/deliver records of Events().
type (
	// TelemetryCollector gathers one run's heatmap, latency split and
	// flight-recorder events.
	TelemetryCollector = telemetry.Collector
	// TelemetryOptions configures a collector.
	TelemetryOptions = telemetry.Options
	// TelemetrySnapshot is a JSON-serializable view of a collector.
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryEvent is one flight-recorder record.
	TelemetryEvent = telemetry.Event
	// TelemetryRegistry tracks live collectors and named counters and
	// histograms for the HTTP endpoint.
	TelemetryRegistry = telemetry.Registry
	// TelemetryPlan opts a Scale's runs into telemetry collection.
	TelemetryPlan = harness.TelemetryPlan
	// TelemetrySink accumulates per-point bundles of a sweep.
	TelemetrySink = harness.TelemetrySink
	// LinkSnap is one directed link of a congestion heatmap.
	LinkSnap = telemetry.LinkSnap
)

// Telemetry constructors and helpers.
var (
	NewTelemetryCollector = telemetry.NewCollector
	NewTelemetryRegistry  = telemetry.NewRegistry
	MergeTelemetryLinks   = telemetry.MergeLinks
	WriteHeatmapCSV       = telemetry.WriteHeatmapCSV
)

// Bisection analysis (Fig. 4 substrate).
var (
	Bisect           = partition.Bisect
	BisectionPerNode = partition.BisectionPerNode
	SpectralLambda2  = partition.SpectralLambda2
)

// PartitionConfig configures the bisection heuristic.
type PartitionConfig = partition.Config

// Fluid-model types: analytic link-load and saturation estimates that
// cross-validate the simulator.
type (
	// FluidModel computes per-link loads analytically.
	FluidModel = fluid.Model
	// FluidLinkLoads holds the relative load of every directed router
	// link.
	FluidLinkLoads = fluid.LinkLoads
)

// NewFluidModel builds the analytic throughput model for a topology.
var NewFluidModel = fluid.New

// DrawTopologySVG renders a topology diagram in the style of the
// paper's Fig. 1 system views.
var DrawTopologySVG = plot.DrawTopologySVG
