// Package scanatpg is a test generation and test compaction library for
// scan circuits, reproducing Pomeranz & Reddy, "A New Approach to Test
// Generation and Test Compaction for Scan Circuits" (DATE 2003).
//
// The paper's idea: treat the scan-select and scan-in lines of a scan
// circuit as ordinary primary inputs and the scan-out line as an
// ordinary primary output, then run test generation and static
// compaction procedures meant for non-scan sequential circuits on the
// resulting circuit C_scan. Scan operations stop being special — they
// are just input vectors with scan_sel = 1 — so limited scan operations
// (shifting fewer than N_SV positions) arise naturally and compaction
// may shorten any scan operation. The result is very aggressive test
// application time reduction.
//
// # Quick start
//
//	c, _ := scanatpg.LoadBenchmark("s27")
//	sc, _ := scanatpg.InsertScan(c)
//	faults := scanatpg.Faults(sc.Scan, true)
//	gen := scanatpg.Generate(sc, faults, scanatpg.GenerateOptions{Seed: 1})
//	compacted, _ := scanatpg.Compact(sc, gen.Sequence, faults, scanatpg.CompactOptions{})
//	fmt.Printf("%d cycles -> %d cycles\n", len(gen.Sequence), len(compacted))
//
// The subpackages under internal/ hold the implementation: the netlist
// model, the .bench reader, scan insertion, the fault model, the
// bit-parallel three-valued simulator, PODEM, the Section 2 sequential
// generator, the Section 3 translator, the Section 4 compaction
// procedures, and the conventional-scan baseline used for comparison.
package scanatpg

import (
	"io"
	"sync"

	"repro/internal/baseline"
	"repro/internal/bench"
	"repro/internal/circuits"
	"repro/internal/combatpg"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/diagnose"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
	"repro/internal/testability"
	"repro/internal/testprog"
	"repro/internal/transition"
	"repro/internal/translate"
)

// Core data types, re-exported for use through the facade.
type (
	// Circuit is a gate-level synchronous sequential circuit.
	Circuit = netlist.Circuit
	// Builder constructs circuits programmatically.
	Builder = netlist.Builder
	// ScanCircuit is a circuit with inserted scan chains (C_scan).
	ScanCircuit = scan.Circuit
	// Fault is a single stuck-at fault.
	Fault = fault.Fault
	// Value is a three-valued logic value (0, 1, X).
	Value = logic.Value
	// Vector assigns one Value per primary input.
	Vector = logic.Vector
	// Sequence is an ordered list of vectors; for C_scan its length
	// is the test application time in clock cycles.
	Sequence = logic.Sequence
	// ScanTest is a conventional scan test (SI, T).
	ScanTest = translate.ScanTest
	// GenerateOptions tunes the Section 2 generator.
	GenerateOptions = seqatpg.Options
	// GenerateResult is the Section 2 generator's output.
	GenerateResult = seqatpg.Result
	// BaselineOptions tunes the conventional-scan comparator.
	BaselineOptions = baseline.Options
	// BaselineResult is the comparator's output.
	BaselineResult = baseline.Result
	// CompactionStats reports what a compaction pass did.
	CompactionStats = compact.Stats
	// FlowConfig parameterizes the end-to-end experiment flows.
	FlowConfig = core.Config
	// GenerateRow is one row of the paper's Tables 5/6.
	GenerateRow = core.GenerateRow
	// TranslateRow is one row of the paper's Table 7.
	TranslateRow = core.TranslateRow
)

// Logic constants.
const (
	Zero = logic.Zero
	One  = logic.One
	X    = logic.X
)

// GateType selects a combinational gate function for Builder.AddGate.
type GateType = netlist.GateType

// Gate types.
const (
	BufGate  = netlist.BUF
	NotGate  = netlist.NOT
	AndGate  = netlist.AND
	NandGate = netlist.NAND
	OrGate   = netlist.OR
	NorGate  = netlist.NOR
	XorGate  = netlist.XOR
	XnorGate = netlist.XNOR
)

// NewBuilder starts building a circuit with the given name.
func NewBuilder(name string) *Builder { return netlist.NewBuilder(name) }

// LoadBenchmark returns a catalog circuit by name: the real ISCAS-89
// s27 netlist, or a deterministic synthetic substitute for the other
// benchmark names (see DESIGN.md).
func LoadBenchmark(name string) (*Circuit, error) { return circuits.Load(name) }

// Benchmarks lists the catalog circuit names in the paper's table
// order.
func Benchmarks() []string { return circuits.Names() }

// ParseBench reads a circuit in ISCAS-89 .bench format.
func ParseBench(r io.Reader, name string) (*Circuit, error) { return bench.Parse(r, name) }

// FormatBench renders a circuit in .bench format.
func FormatBench(c *Circuit) string { return bench.Format(c) }

// InsertScan builds C_scan: a single mux-based scan chain in flip-flop
// declaration order, with scan_sel/scan_inp as extra inputs and
// scan_out as an extra output.
func InsertScan(c *Circuit) (*ScanCircuit, error) { return scan.Insert(c) }

// InsertScanChains builds C_scan with n scan chains sharing one
// scan_sel (the paper's noted generalization); flip-flops are split into
// near-equal contiguous groups, so a complete scan operation takes only
// the longest chain's length in cycles. One chain is InsertScan.
func InsertScanChains(c *Circuit, n int) (*ScanCircuit, error) { return scan.InsertChains(c, n) }

// Faults enumerates the single stuck-at fault universe of a circuit,
// optionally with structural equivalence collapsing.
func Faults(c *Circuit, collapse bool) []Fault { return fault.Universe(c, collapse) }

// Generate runs the paper's Section 2 test generation procedure on
// C_scan: a sequential generator for non-scan circuits enhanced with
// functional-level knowledge of the scan chain(s), for any chain count.
func Generate(sc *ScanCircuit, faults []Fault, opts GenerateOptions) GenerateResult {
	return seqatpg.Generate(sc, faults, opts)
}

// GenerateBaseline runs the conventional "second approach" scan test
// generator with test-set compaction on the original circuit. Its
// Cycles field is the comparison column of Tables 6 and 7.
func GenerateBaseline(c *Circuit, faults []Fault, opts BaselineOptions) BaselineResult {
	return baseline.Generate(c, faults, opts)
}

// Translate flattens a conventional scan test set into one C_scan test
// sequence (the paper's Section 3); the result detects everything the
// conventional application of the set detects.
func Translate(sc *ScanCircuit, tests []ScanTest, seed uint64) (Sequence, error) {
	return translate.Translate(sc, tests, seed)
}

// ConventionalCycles returns the clock cycles conventional application
// of a scan test set takes (complete scan per test plus final
// scan-out).
func ConventionalCycles(tests []ScanTest, nsv int) int {
	return translate.Cycles(tests, nsv)
}

// CompactOptions tunes the compaction entry points Restore, Omit and
// Compact. The zero value selects defaults (all cores, detection order,
// no budget, no observation).
// Fields:
//
//   - Workers / Sim: fault-simulation parallelism, or a caller-owned
//     Simulator whose machine pool is shared across passes.
//   - Control: budget/cancellation and checkpoint/resume — the former
//     *WithControl variants folded into the options struct.
//   - Obs: the flight-recorder Observer for the pass.
//   - Engine: selects nothing; restoration has one engine, and the
//     field goes with the next benchmark change.
//   - Order: the restoration target order (OrderADI changes output).
type CompactOptions = compact.Options

// CompactOrder selects the restoration target order.
type CompactOrder = compact.Order

// Restoration order values for CompactOptions.
const (
	OrderDetection = compact.OrderDetection
	OrderADI       = compact.OrderADI
)

// Restore applies vector-restoration compaction [23] to a test sequence
// for a scan design of any chain count; pass CompactOptions{} for the
// defaults.
func Restore(sc *ScanCircuit, seq Sequence, faults []Fault, opts CompactOptions) (Sequence, CompactionStats) {
	return compact.RestoreOpts(sc.ScanCircuit(), seq, faults, opts)
}

// Omit applies vector-omission compaction [22] to a test sequence for a
// scan design.
func Omit(sc *ScanCircuit, seq Sequence, faults []Fault, opts CompactOptions) (Sequence, CompactionStats) {
	return compact.OmitOpts(sc.ScanCircuit(), seq, faults, opts)
}

// Compact applies the paper's Section 4 pipeline — restoration followed
// by omission — and returns the final sequence with the omission stats.
// Budgets, checkpointing, observation and order selection all ride in
// opts; with a Control set, a stopped pass returns the valid
// partially compacted sequence with Stats.Status set.
func Compact(sc *ScanCircuit, seq Sequence, faults []Fault, opts CompactOptions) (Sequence, CompactionStats) {
	_, omitted, _, ost := compact.RestoreThenOmitOpts(sc.ScanCircuit(), seq, faults, opts)
	return omitted, ost
}

// simCache memoizes the last Simulator that Simulate built, so repeated
// facade calls on the same circuit share one machine pool (and the
// event-driven kernel's trace cache) instead of allocating machines per
// call.
var simCache struct {
	sync.Mutex
	c *Circuit
	s *Simulator
}

func cachedSimulator(c *Circuit) *Simulator {
	simCache.Lock()
	defer simCache.Unlock()
	if simCache.c != c {
		simCache.c, simCache.s = c, sim.NewSimulator(c, 0)
	}
	return simCache.s
}

// Simulate fault-simulates a sequence and returns, per fault, the first
// detecting vector index or -1. Calls run through a pooled Simulator
// cached per circuit; results are bit-identical to Simulator.Run.
func Simulate(c *Circuit, seq Sequence, faults []Fault) []int {
	return cachedSimulator(c).Run(seq, faults, sim.Options{}).DetectedAt
}

// Simulator owns a reusable pool of bit-parallel fault-simulation
// machines for one circuit and fans fault batches out across worker
// goroutines. Detection results are bit-identical for every worker
// count; only wall-clock time changes.
type Simulator = sim.Simulator

// SimOptions configures a Simulator.Run call (kernel and run control).
// Every run starts from the paper's all-X power-up state.
type SimOptions = sim.Options

// NewSimulator builds a Simulator for c with the given worker count
// (<= 0 selects GOMAXPROCS). A Simulator is safe for concurrent use and
// amortizes machine allocation across many simulation calls.
func NewSimulator(c *Circuit, workers int) *Simulator { return sim.NewSimulator(c, workers) }

// Run control: budgets, cancellation and crash-safe checkpoint/resume,
// re-exported from the internal runctl package so library users get the
// same machinery the commands expose as -timeout/-checkpoint/-resume.
type (
	// Budget caps a run by context cancellation or deadline (a wall
	// clock budget is a context.WithTimeout context), or by
	// attempt/trial counts; the zero value imposes no limits.
	Budget = runctl.Budget
	// Control threads one run's budget, cancellation and optional
	// checkpoint store through the engines. A nil *Control is valid
	// everywhere and means "run to completion".
	Control = runctl.Control
	// Status classifies how a budgeted run ended.
	Status = runctl.Status
	// Store persists checkpoint sections between run legs.
	Store = runctl.Store
	// FileStore is a Store keeping all sections in one JSON file,
	// written atomically.
	FileStore = runctl.FileStore
)

// Run statuses. Complete and Resumed mark fully finished runs; the
// others mark a clean stop with valid partial results that a checkpoint
// can continue.
const (
	Complete         = runctl.Complete
	Resumed          = runctl.Resumed
	Canceled         = runctl.Canceled
	DeadlineExceeded = runctl.DeadlineExceeded
	BudgetExhausted  = runctl.BudgetExhausted
	Failed           = runctl.Failed
)

// NewFileStore returns a checkpoint Store backed by one JSON file.
func NewFileStore(path string) *FileStore { return runctl.NewFileStore(path) }

// Observability: the flight-recorder layer from the internal obs
// package, re-exported so library users can watch a run the same way
// the commands' -metrics/-debug-addr flags do. Every engine option
// struct (GenerateOptions, FlowConfig) carries an Obs field; a nil
// Observer is free and results never depend on observation.
type (
	// Observer receives named atomic counters/gauges/timers and
	// structured per-phase events from the engines.
	Observer = obs.Observer
	// MetricsRecorder is an Observer that aggregates instruments and
	// streams events as JSONL flight-recorder lines.
	MetricsRecorder = obs.Recorder
	// MetricsRecorderOptions configures a MetricsRecorder.
	MetricsRecorderOptions = obs.RecorderOptions
	// MetricsSnapshot is a point-in-time view of every instrument.
	MetricsSnapshot = obs.Snapshot
)

// NewMetricsRecorder builds a flight recorder writing JSONL to w (nil w
// keeps instruments only). Close it to flush the final snapshot.
func NewMetricsRecorder(w io.Writer, opts MetricsRecorderOptions) *MetricsRecorder {
	return obs.NewRecorder(w, opts)
}

// ValidateMetrics checks a JSONL flight-recorder stream against the
// schema in docs/ALGORITHMS.md §11 and returns the first violation.
func ValidateMetrics(r io.Reader) error {
	_, err := obs.Validate(r)
	return err
}

// FirstApproachTestSet generates a conventional first-approach test set
// (one combinational PODEM test per fault, state fully controllable,
// next state observable) on the original circuit, as scan tests with a
// single functional vector each.
func FirstApproachTestSet(c *Circuit, faults []Fault, seed uint64) []ScanTest {
	res := combatpg.GenerateTestSet(c, faults, seed)
	return translate.FromFrameTests(res.Tests)
}

// FaultDictionary maps every fault to its failure signature under one
// test sequence, for diagnosis.
type FaultDictionary = diagnose.Dictionary

// Observation is one recorded tester mismatch (cycle, output).
type Observation = diagnose.Observation

// BuildDictionary fault-simulates seq without fault dropping and
// records complete failure signatures for diagnosis.
func BuildDictionary(c *Circuit, seq Sequence, faults []Fault) *FaultDictionary {
	return diagnose.Build(c, seq, faults)
}

// TestProgram is the segmented (scan op / functional) view of a flat
// test sequence.
type TestProgram = testprog.Program

// SplitProgram segments a flat sequence into scan operations and
// functional vectors — the inverse of translation, showing where
// compaction created limited scan operations.
func SplitProgram(sc *ScanCircuit, seq Sequence) *TestProgram { return testprog.Split(sc, seq) }

// CollapseDominance additionally drops structurally dominating gate
// output faults from a fault list; use the result as a generation
// target list (coverage accounting should simulate the uncollapsed
// list).
func CollapseDominance(c *Circuit, faults []Fault) []Fault {
	return fault.CollapseDominance(c, faults)
}

// Classification reports per-fault testability under full state
// controllability and observability.
type Classification = combatpg.Classification

// ClassifyFaults proves single-frame testability or untestability of
// every fault (the combinational full-scan view); its Efficiency is the
// coverage ceiling for scan-based testing.
func ClassifyFaults(c *Circuit, faults []Fault, maxBacktracks int) Classification {
	return combatpg.ClassifyUniverse(c, faults, maxBacktracks)
}

// TransitionFault is a gross-delay transition fault (slow-to-rise or
// slow-to-fall) on a signal stem.
type TransitionFault = transition.Fault

// TransitionFaults enumerates the transition fault universe of a
// circuit.
func TransitionFaults(c *Circuit) []TransitionFault { return transition.Universe(c) }

// GradeTransitions fault-simulates seq against the transition universe
// and returns per-fault first detection times (-1 = undetected). The
// paper's representation applies every vector at-speed, so stuck-at
// sequences pick up transition coverage for free.
func GradeTransitions(c *Circuit, seq Sequence, faults []TransitionFault) []int {
	return transition.Run(c, seq, faults).DetectedAt
}

// TransitionResult is the output of GenerateTransitionTests.
type TransitionResult = seqatpg.TransitionResult

// GenerateTransitionTests runs the Section 2 forward search against the
// gross-delay transition fault model (at-speed test generation). The
// candidate fitness and the scan flush mechanism are fault-model
// agnostic; only the stuck-at PODEM oracles are disabled.
func GenerateTransitionTests(sc *ScanCircuit, faults []TransitionFault, opts GenerateOptions) TransitionResult {
	return seqatpg.GenerateTransition(sc, faults, opts)
}

// TestabilityMeasures holds SCOAP controllability/observability values.
type TestabilityMeasures = testability.Measures

// ComputeTestability calculates SCOAP measures (CC0/CC1/CO) for the
// combinational view of a circuit, with scan conventions for flip-flops.
func ComputeTestability(c *Circuit) *TestabilityMeasures { return testability.Compute(c) }

// DefaultFlowConfig is the configuration the recorded experiments use.
func DefaultFlowConfig() FlowConfig { return core.DefaultConfig() }

// RunGenerateFlow executes the full generation experiment (Tables 5/6)
// on one catalog circuit.
func RunGenerateFlow(name string, cfg FlowConfig) (GenerateRow, error) {
	row, _, err := core.RunGenerate(name, cfg)
	return row, err
}

// RunTranslateFlow executes the full translation experiment (Table 7)
// on one catalog circuit.
func RunTranslateFlow(name string, cfg FlowConfig) (TranslateRow, error) {
	row, _, err := core.RunTranslate(name, cfg)
	return row, err
}
