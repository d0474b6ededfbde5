// Package core orchestrates the paper's end-to-end flows over the
// benchmark suite:
//
//   - the generation flow (Tables 5 and 6): scan insertion → Section 2
//     sequential test generation on C_scan → vector restoration →
//     vector omission, with the conventional-scan baseline providing
//     the comparison cycle count;
//   - the translation flow (Table 7): conventional second-approach test
//     set → Section 3 translation into a flat C_scan sequence → the
//     same two compaction passes.
package core

import (
	"fmt"

	"repro/internal/baseline"
	"repro/internal/circuits"
	"repro/internal/compact"
	"repro/internal/fault"
	"repro/internal/logic"
	"repro/internal/obs"
	"repro/internal/runctl"
	"repro/internal/scan"
	"repro/internal/seqatpg"
	"repro/internal/sim"
	"repro/internal/translate"
)

// Config parameterizes a flow run.
type Config struct {
	// Seed drives every random choice; identical configs reproduce
	// identical results.
	Seed uint64
	// Collapse enables structural equivalence fault collapsing
	// (recommended; the paper's absolute fault counts differ anyway
	// because the non-s27 circuits are synthetic).
	Collapse bool
	// Seq tunes the Section 2 generator.
	Seq seqatpg.Options
	// Baseline tunes the conventional comparator.
	Baseline baseline.Options
	// SkipBaseline omits the baseline run (Table 5 only needs the
	// generator).
	SkipBaseline bool
	// SkipCompaction stops after raw generation.
	SkipCompaction bool
	// Engine selects the restoration trial engine (see
	// compact.Engine); the zero value is the incremental engine.
	// Results are identical for every engine.
	Engine compact.Engine
	// Order selects the restoration target order (see compact.Order).
	// Unlike Engine, a non-default order changes the compacted output.
	Order compact.Order
	// Chains selects the number of scan chains for the generation
	// flow (0 or 1 = the paper's single chain).
	Chains int
	// Workers is the fault-simulation worker count used throughout the
	// flow (0 = GOMAXPROCS). Results are identical for every value.
	Workers int
	// Control, when non-nil, threads budget/cancellation and optional
	// checkpointing through the generation flow: the generator and both
	// compaction passes poll it, and a "meta" checkpoint section guards
	// resumes against a different circuit, seed, chain count or
	// collapse setting. A stopped flow skips the stages that did not
	// run (compaction, baseline) and reports partial numbers with
	// GenerateRow.Status set. One Control describes one circuit's run;
	// suite runs must not attach a checkpoint Store (each circuit would
	// fight over the same sections).
	Control *runctl.Control
	// Obs, when non-nil, observes the whole flow: stage events under the
	// "flow" phase plus the engines' own instrumentation (the generator's
	// "generate" phase, the compaction passes' "restore"/"omit" phases
	// and the shared simulator's "sim" counters). Purely observational —
	// every result is identical with or without it.
	Obs obs.Observer
}

// DefaultConfig returns the configuration the experiments use.
func DefaultConfig() Config {
	return Config{Seed: 1, Collapse: true}
}

// GenerateRow is one row of the paper's Tables 5 and 6.
type GenerateRow struct {
	Circ   string
	Inp    int // primary inputs of C_scan (includes scan_sel, scan_inp)
	Stvr   int // state variables
	Faults int

	Detected int
	FCov     float64
	Funct    int // faults detected via functional-level scan knowledge

	TestLen, TestScan     int // |T| and its scan_sel=1 count
	RestorLen, RestorScan int
	OmitLen, OmitScan     int
	ExtDet                int // extra faults detected during compaction

	BaselineCycles int // conventional-scan comparator ("[26] cyc")

	// Status classifies the flow run: Complete/Resumed mark full rows;
	// a Stopped() status marks partial numbers (stages after the stop
	// hold zero values).
	Status runctl.Status
}

// GenerateArtifacts carries the heavyweight objects produced by the
// generation flow, for callers that want more than the table row.
type GenerateArtifacts struct {
	Scan                    *scan.Circuit
	Faults                  []fault.Fault
	Gen                     seqatpg.Result
	Raw                     logic.Sequence
	Restored                logic.Sequence
	Omitted                 logic.Sequence
	RestoreStats, OmitStats compact.Stats
	Baseline                baseline.Result
}

// RunGenerate executes the generation flow on the named catalog
// circuit.
func RunGenerate(name string, cfg Config) (GenerateRow, *GenerateArtifacts, error) {
	ctl := cfg.Control
	defer obs.T(cfg.Obs, "flow.time").Start()()
	obs.Emit(cfg.Obs, "flow", "start",
		obs.F("flow", "generate"), obs.F("circuit", name), obs.F("seed", cfg.Seed))
	if err := checkMeta(ctl, "generate", name, cfg); err != nil {
		ctl.Fail()
		return GenerateRow{Circ: name, Status: runctl.Failed}, nil, err
	}
	c, err := circuits.Load(name)
	if err != nil {
		return GenerateRow{}, nil, err
	}
	sc, err := scan.InsertChains(c, cfg.Chains)
	if err != nil {
		return GenerateRow{}, nil, err
	}
	cs := sc.Scan
	faults := fault.Universe(cs, cfg.Collapse)
	seqOpts := cfg.Seq
	if seqOpts.Seed == 0 {
		seqOpts.Seed = cfg.Seed
	}
	if seqOpts.Workers == 0 {
		seqOpts.Workers = cfg.Workers
	}
	seqOpts.Control = ctl
	seqOpts.Obs = cfg.Obs
	gen := seqatpg.Generate(sc, faults, seqOpts)
	obs.Emit(cfg.Obs, "flow", "generated",
		obs.F("vectors", len(gen.Sequence)), obs.F("detected", gen.NumDetected()),
		obs.F("status", gen.Status.String()))

	art := &GenerateArtifacts{Scan: sc, Faults: faults, Gen: gen, Raw: gen.Sequence}
	row := GenerateRow{
		Circ:     name,
		Inp:      cs.NumInputs(),
		Stvr:     sc.NumStateVars(),
		Faults:   len(faults),
		Detected: gen.NumDetected(),
		FCov:     fault.Coverage(gen.NumDetected(), len(faults)),
		Funct:    gen.NumFunct(),
		TestLen:  len(gen.Sequence),
		TestScan: sc.CountScanVectors(gen.Sequence),
		Status:   gen.Status,
	}
	if gen.Status == runctl.Failed {
		return row, art, gen.Err
	}
	if gen.Status.Stopped() {
		// Partial generation: the sequence will grow on resume, so the
		// compaction passes (and their checkpoints) must not run, and
		// the baseline comparison would not be meaningful yet.
		return row, art, nil
	}

	if !cfg.SkipCompaction {
		// One simulator (and so one machine pool) serves both compaction
		// passes and the final extra-detection check.
		s := sim.NewSimulator(cs, cfg.Workers)
		s.Observe(cfg.Obs)
		copts := compact.Options{Sim: s, Control: ctl, Obs: cfg.Obs, Engine: cfg.Engine, Order: cfg.Order}
		restored, omitted, rst, ost := compact.RestoreThenOmitOpts(cs, gen.Sequence, faults, copts)
		if row.Status, err = passStatus(row.Status, rst, ost); err != nil {
			return row, art, err
		}
		art.Restored, art.Omitted = restored, omitted
		art.RestoreStats, art.OmitStats = rst, ost
		row.RestorLen = len(restored)
		row.RestorScan = sc.CountScanVectors(restored)
		row.OmitLen = len(omitted)
		row.OmitScan = sc.CountScanVectors(omitted)
		if row.Status.Done() {
			row.ExtDet = extraDetections(s, gen, omitted, faults)
		}
		obs.Emit(cfg.Obs, "flow", "compacted",
			obs.F("restored", len(restored)), obs.F("omitted", len(omitted)),
			obs.F("extra", row.ExtDet))
	}

	if row.Status.Stopped() {
		return row, art, nil
	}
	if !cfg.SkipBaseline {
		baseOpts := cfg.Baseline
		if baseOpts.Seed == 0 {
			baseOpts.Seed = cfg.Seed
		}
		if baseOpts.Workers == 0 {
			baseOpts.Workers = cfg.Workers
		}
		base := baseline.Generate(c, fault.Universe(c, cfg.Collapse), baseOpts)
		art.Baseline = base
		row.BaselineCycles = base.Cycles
		obs.Emit(cfg.Obs, "flow", "baseline", obs.F("cycles", base.Cycles))
	}
	obs.Emit(cfg.Obs, "flow", "done",
		obs.F("flow", "generate"), obs.F("circuit", name),
		obs.F("status", row.Status.String()))
	return row, art, nil
}

// coreMeta is the "meta" checkpoint section: the flow-level settings a
// resume must match for the engine checkpoints to make sense.
type coreMeta struct {
	Flow     string `json:"flow"`
	Circuit  string `json:"circuit"`
	Seed     uint64 `json:"seed"`
	Chains   int    `json:"chains"`
	Collapse bool   `json:"collapse"`
}

// checkMeta validates the checkpoint's meta section against the run's
// settings when resuming, and records them when starting fresh with a
// store attached.
func checkMeta(ctl *runctl.Control, flow, name string, cfg Config) error {
	if ctl == nil || ctl.Store == nil {
		return nil
	}
	chains := cfg.Chains
	if chains < 1 {
		chains = 1
	}
	want := coreMeta{Flow: flow, Circuit: name, Seed: cfg.Seed, Chains: chains, Collapse: cfg.Collapse}
	if ctl.Resuming() {
		var have coreMeta
		ok, err := ctl.Load("meta", &have)
		if err != nil {
			return err
		}
		if ok {
			if have != want {
				return fmt.Errorf("core: checkpoint is for %s/%s seed=%d chains=%d collapse=%v; run is %s/%s seed=%d chains=%d collapse=%v",
					have.Flow, have.Circuit, have.Seed, have.Chains, have.Collapse,
					want.Flow, want.Circuit, want.Seed, want.Chains, want.Collapse)
			}
			return nil
		}
	}
	return ctl.Save("meta", want)
}

// passStatus folds the restoration and omission statuses into a flow
// row's status: an incomplete pass overrides it, and a failed pass ends
// the flow with that pass's error.
func passStatus(status runctl.Status, rst, ost compact.Stats) (runctl.Status, error) {
	for _, st := range []compact.Stats{rst, ost} {
		if st.Status != runctl.Complete {
			status = st.Status
		}
		if st.Status == runctl.Failed {
			return status, st.Err
		}
	}
	return status, nil
}

// extraDetections counts faults the generator left undetected that the
// final compacted sequence detects anyway (the paper's "ext det").
func extraDetections(s *sim.Simulator, gen seqatpg.Result, final logic.Sequence, faults []fault.Fault) int {
	var sub []fault.Fault
	for fi := range faults {
		if gen.DetectedAt[fi] == sim.NotDetected {
			sub = append(sub, faults[fi])
		}
	}
	if len(sub) == 0 {
		return 0
	}
	return s.Run(final, sub, sim.Options{}).NumDetected()
}

// TranslateRow is one row of the paper's Table 7.
type TranslateRow struct {
	Circ                  string
	TestLen, TestScan     int
	RestorLen, RestorScan int
	OmitLen, OmitScan     int
	Cycles                int // conventional application of the source test set

	// Status classifies the flow run like GenerateRow.Status: a
	// Stopped() value marks partial numbers (stages after the stop hold
	// zero values) that a checkpointed -resume can continue.
	Status runctl.Status
}

// TranslateArtifacts carries the heavyweight objects of the translation
// flow.
type TranslateArtifacts struct {
	Scan       *scan.Circuit
	Base       baseline.Result
	Translated logic.Sequence
	Restored   logic.Sequence
	Omitted    logic.Sequence
	ScanFaults []fault.Fault
}

// RunTranslate executes the translation flow on the named catalog
// circuit: generate a conventional test set, translate it, compact it.
func RunTranslate(name string, cfg Config) (TranslateRow, *TranslateArtifacts, error) {
	ctl := cfg.Control
	defer obs.T(cfg.Obs, "flow.time").Start()()
	obs.Emit(cfg.Obs, "flow", "start",
		obs.F("flow", "translate"), obs.F("circuit", name), obs.F("seed", cfg.Seed))
	if err := checkMeta(ctl, "translate", name, cfg); err != nil {
		ctl.Fail()
		return TranslateRow{Circ: name, Status: runctl.Failed}, nil, err
	}
	c, err := circuits.Load(name)
	if err != nil {
		return TranslateRow{}, nil, err
	}
	sc, err := scan.Insert(c)
	if err != nil {
		return TranslateRow{}, nil, err
	}
	baseOpts := cfg.Baseline
	if baseOpts.Seed == 0 {
		baseOpts.Seed = cfg.Seed
	}
	if baseOpts.Workers == 0 {
		baseOpts.Workers = cfg.Workers
	}
	base := baseline.Generate(c, fault.Universe(c, cfg.Collapse), baseOpts)

	seq, err := translate.Translate(sc, base.Tests, cfg.Seed^0x7A75)
	if err != nil {
		return TranslateRow{}, nil, err
	}
	obs.Emit(cfg.Obs, "flow", "translated",
		obs.F("tests", len(base.Tests)), obs.F("vectors", len(seq)))
	scanFaults := fault.Universe(sc.Scan, cfg.Collapse)
	row := TranslateRow{
		Circ:     name,
		TestLen:  len(seq),
		TestScan: sc.CountScanVectors(seq),
		Cycles:   base.Cycles,
	}
	art := &TranslateArtifacts{Scan: sc, Base: base, Translated: seq, ScanFaults: scanFaults}
	if !cfg.SkipCompaction {
		s := sim.NewSimulator(sc.Scan, cfg.Workers)
		s.Observe(cfg.Obs)
		copts := compact.Options{Sim: s, Control: ctl, Obs: cfg.Obs, Engine: cfg.Engine, Order: cfg.Order}
		restored, omitted, rst, ost := compact.RestoreThenOmitOpts(sc.Scan, seq, scanFaults, copts)
		if row.Status, err = passStatus(row.Status, rst, ost); err != nil {
			return row, art, err
		}
		art.Restored, art.Omitted = restored, omitted
		row.RestorLen = len(restored)
		row.RestorScan = sc.CountScanVectors(restored)
		row.OmitLen = len(omitted)
		row.OmitScan = sc.CountScanVectors(omitted)
		obs.Emit(cfg.Obs, "flow", "compacted",
			obs.F("restored", len(restored)), obs.F("omitted", len(omitted)))
	}
	obs.Emit(cfg.Obs, "flow", "done",
		obs.F("flow", "translate"), obs.F("circuit", name),
		obs.F("status", row.Status.String()))
	return row, art, nil
}
