package expt

import (
	"fmt"
	"io"
	"math"
	"math/rand"

	"caft/internal/failure"
	"caft/internal/sched"
	"caft/internal/sim"
	"caft/internal/topology"
)

// The reliability experiment scores the schedulers under stochastic
// failure models instead of static crash subsets: per-processor crash
// instants are sampled from package failure, every scenario is replayed
// with timed fail-stop semantics (sim.Replayer.CrashLatencyAt), and two
// quantities are estimated by Monte Carlo — the unreliability (the
// probability the schedule loses a task) and the expected latency over
// the surviving scenarios. This is the evaluation style of the related
// reliability-aware scheduling work (arXiv:0711.1231, arXiv:2212.09274)
// that static subset draws cannot reproduce; see DESIGN.md S4.

// ReliabilityAlgs names the algorithm columns of the reliability
// tables, in order: the fault-free HEFT reference (ε = 0, one replica
// per task), the three fault-tolerant schedulers at ε = 1, and the
// fault-free HOFT reference (appended last to keep earlier columns
// stable).
var ReliabilityAlgs = [5]string{"HEFT", "CAFT", "FTSA", "FTBAR", "HOFT"}

// ReliabilityPoint is one averaged row of the reliability tables.
type ReliabilityPoint struct {
	Label string  // row key: MTBF multiplier or failure-model name
	Mult  float64 // base-MTBF multiplier of T_HEFT (0 for model rows)

	// Lat is the expected normalized latency over surviving scenarios
	// per algorithm (ReliabilityAlgs order); NaN when no scenario of an
	// algorithm survived.
	Lat [5]float64
	// Unrel is the estimated unreliability per algorithm: the fraction
	// of sampled scenarios in which the schedule lost a task.
	Unrel [5]float64
	// Draws is the number of evaluated scenarios behind each estimate;
	// ReplayErrors counts scenarios the engine failed to evaluate
	// (excluded from Draws, never blamed on the schedule).
	Draws        [5]int
	ReplayErrors int
}

// reliabilitySamples is the number of crash-time scenarios sampled per
// (cell, graph) unit. Every scenario is replayed against all five
// algorithms (common random numbers), so per-row contrasts share their
// noise.
const reliabilitySamples = 20

// reliabilityMults sweeps the per-processor base MTBF as a multiple of
// the fault-free HEFT latency T. With m = 10 processors the expected
// number of crashes inside the execution window is ~10/mult: at 1·T
// task loss is near-certain even with replication, at 64·T a single
// crash is already rare and the ε = 1 schedulers approach perfect
// reliability while unreplicated HEFT keeps losing runs.
var reliabilityMults = []float64{1, 2, 4, 8, 16, 32, 64}

// reliabilityModel builds the failure model of one cell. T is the
// instance's fault-free reference latency; the heterogeneous MTBF
// vector is drawn from the unit rng before any scenario sampling.
type reliabilityModel struct {
	label string
	mult  float64
	build func(rng *rand.Rand, m int, base float64) (failure.Model, error)
}

func expModel(rng *rand.Rand, m int, base float64) (failure.Model, error) {
	return &failure.Exponential{MTBF: failure.UniformMTBF(rng, m, 0.75*base, 1.25*base)}, nil
}

// reliabilityModelBase is the per-processor base MTBF multiplier of the
// model-comparison rows — a regime where the schedulers differentiate
// (a crash per run is likely, two are not).
const reliabilityModelBase = 8

// reliabilityModels are the model-comparison rows, all at the same mean
// lifetime on the same platforms: exponential, infant-mortality and
// wear-out Weibull calibrated to the identical per-processor MTBF, and
// rack-correlated failures whose groups come from interconnect
// proximity (two racks of a 2x5 mesh) with rarer individual failures
// layered in. The rack rows probe exactly what ε-resilience cannot
// promise: one rack failure kills half the platform at once.
var reliabilityModels = []reliabilityModel{
	{"exponential", reliabilityModelBase, expModel},
	{"weibull-k0.7", reliabilityModelBase, func(rng *rand.Rand, m int, base float64) (failure.Model, error) {
		return failure.WeibullWithMTBF(0.7, failure.UniformMTBF(rng, m, 0.75*base, 1.25*base)), nil
	}},
	{"weibull-k2.0", reliabilityModelBase, func(rng *rand.Rand, m int, base float64) (failure.Model, error) {
		return failure.WeibullWithMTBF(2.0, failure.UniformMTBF(rng, m, 0.75*base, 1.25*base)), nil
	}},
	{"racks-2", reliabilityModelBase, func(rng *rand.Rand, m int, base float64) (failure.Model, error) {
		mesh, err := topology.Mesh2D(2, m/2, 1)
		if err != nil {
			return nil, err
		}
		return &failure.Rack{
			Groups:   mesh.Racks(2),
			RackMTBF: float64(m) * base, // one common-mode failure as likely as one processor's
			Proc:     &failure.Exponential{MTBF: failure.UniformMTBF(rng, m, 0.75*base, 1.25*base)},
		}, nil
	}},
}

type reliabilityUnit struct {
	algs [5]MCTally
}

// runReliabilityUnit generates one instance, schedules it with all five
// algorithms and replays the same sampled crash-time scenarios against
// each of them. useed is the unit's base seed: schedulers added after
// the original four (HOFT) draw tie-breaks from an rng derived from it,
// never from the shared stream, so the model build and scenario draws —
// and with them the original columns — stay byte-identical.
func runReliabilityUnit(rng *rand.Rand, useed int64, mult float64, build func(*rand.Rand, int, float64) (failure.Model, error)) (reliabilityUnit, error) {
	var out reliabilityUnit
	const m = 10
	p := randomProblem(rng, m, 1)

	sHEFT, err := algo("heft").New(p, 0, rng)
	if err != nil {
		return out, err
	}
	T := sHEFT.ScheduledLatency()
	sCA, err := algo("caft").New(p, 1, rng)
	if err != nil {
		return out, err
	}
	sFT, err := algo("ftsa").New(p, 1, rng)
	if err != nil {
		return out, err
	}
	sFB, err := algo("ftbar").New(p, 1, rng)
	if err != nil {
		return out, err
	}
	sHO, err := algo("hoft").New(p, 0, rand.New(rand.NewSource(unitSeed(useed, 0, 1))))
	if err != nil {
		return out, err
	}

	var reps [5]*sim.Replayer
	for i, s := range []*sched.Schedule{sHEFT, sCA, sFT, sFB, sHO} {
		if reps[i], err = sim.NewReplayer(s); err != nil {
			return out, err
		}
	}

	model, err := build(rng, m, mult*T)
	if err != nil {
		return out, err
	}
	replaySamples(reps[:], out.algs[:], model, reliabilitySamples, DefaultNorm, rng)
	return out, nil
}

// RunReliability estimates expected latency and unreliability under
// stochastic failure models on the deterministic work-unit pool: one
// table sweeping the base MTBF with exponential lifetimes, one
// comparing failure models at base MTBF = T. It writes both as TSV and
// returns the rows for plotting. Output is byte-identical for any
// worker count.
func RunReliability(w io.Writer, graphs int, seed int64, workers int) ([]ReliabilityPoint, error) {
	var defs []reliabilityModel
	for _, mult := range reliabilityMults {
		defs = append(defs, reliabilityModel{fmt.Sprintf("%g", mult), mult, expModel})
	}
	defs = append(defs, reliabilityModels...)

	cells, err := runCells(workers, len(defs), graphs, func(cell, gi int) (reliabilityUnit, error) {
		useed := unitSeed(seed, cell, gi)
		rng := rand.New(rand.NewSource(useed))
		return runReliabilityUnit(rng, useed, defs[cell].mult, defs[cell].build)
	})
	if err != nil {
		return nil, err
	}

	nMults := len(reliabilityMults)
	points := make([]ReliabilityPoint, len(defs))
	for cell, def := range defs {
		pt := ReliabilityPoint{Label: def.label, Mult: def.mult}
		if cell >= nMults {
			// Model-comparison rows are keyed by label, not by the sweep's
			// x axis; Mult 0 keeps them out of the gnuplot data.
			pt.Mult = 0
		}
		var total [5]MCTally
		for _, u := range cells[cell] {
			for a := range total {
				total[a].add(u.algs[a])
			}
		}
		for a, t := range total {
			pt.Lat[a] = t.MeanLatency()
			pt.Unrel[a] = t.Unreliability()
			pt.Draws[a] = t.Draws()
			pt.ReplayErrors += t.ReplayErrors
		}
		points[cell] = pt
	}

	fmt.Fprintf(w, "# reliability: m=10 eps=1 g=1.0 graphs/point=%d samples/graph=%d seed=%d\n",
		graphs, reliabilitySamples, seed)
	fmt.Fprintln(w, "# latency: expected normalized latency over surviving scenarios; unrel: fraction of scenarios losing a task")
	header := "mtbf/T"
	for _, a := range ReliabilityAlgs {
		header += fmt.Sprintf("\t%s\t%s-unrel", a, a)
	}
	fmt.Fprintln(w, "## expected latency and unreliability vs MTBF (exponential lifetimes, MTBF ~ U[0.75,1.25] x mult x T_HEFT)")
	fmt.Fprintln(w, header)
	for _, pt := range points[:nMults] {
		fmt.Fprintln(w, reliabilityRow(pt.Label, pt))
	}
	fmt.Fprintf(w, "## failure-model comparison at base MTBF = %d x T_HEFT\n", reliabilityModelBase)
	fmt.Fprintln(w, "model"+header[len("mtbf/T"):])
	for _, pt := range points[nMults:] {
		fmt.Fprintln(w, reliabilityRow(pt.Label, pt))
	}
	errs := 0
	for _, pt := range points {
		errs += pt.ReplayErrors
	}
	if errs > 0 {
		fmt.Fprintf(w, "# %d crash replay(s) failed to evaluate and were excluded\n", errs)
	}
	return points, nil
}

func reliabilityRow(label string, pt ReliabilityPoint) string {
	row := label
	for a := range pt.Lat {
		lat := "-"
		if !math.IsNaN(pt.Lat[a]) {
			lat = fmt.Sprintf("%.2f", pt.Lat[a])
		}
		unrel := "-"
		if !math.IsNaN(pt.Unrel[a]) {
			unrel = fmt.Sprintf("%.3f", pt.Unrel[a])
		}
		row += "\t" + lat + "\t" + unrel
	}
	return row
}

// WriteReliabilityGnuplotData writes the MTBF-sweep rows as a gnuplot
// table: mult, then per algorithm the expected latency and the
// unreliability.
func WriteReliabilityGnuplotData(w io.Writer, points []ReliabilityPoint) error {
	if _, err := fmt.Fprintln(w, "# mtbfMult HEFT HEFTu CAFT CAFTu FTSA FTSAu FTBAR FTBARu HOFT HOFTu"); err != nil {
		return err
	}
	for _, pt := range points {
		if pt.Mult == 0 {
			continue
		}
		row := gnuplotVal(pt.Mult)
		for a := range pt.Lat {
			row += " " + gnuplotVal(pt.Lat[a]) + " " + gnuplotVal(pt.Unrel[a])
		}
		if _, err := fmt.Fprintln(w, row); err != nil {
			return err
		}
	}
	return nil
}

// WriteReliabilityGnuplotScript writes a two-panel script (expected
// latency and unreliability vs MTBF multiplier, log-x) for a data file
// produced by WriteReliabilityGnuplotData.
func WriteReliabilityGnuplotScript(w io.Writer, dataFile string) error {
	_, err := fmt.Fprintf(w, `set terminal pngcairo size 800,1000
set output "reliability.png"
set datafile missing "?"
set multiplot layout 2,1 title "Reliability under exponential failures"
set xlabel "base MTBF / fault-free latency"
set logscale x 2
set key top right

set ylabel "Expected Normalized Latency"
set title "(a) expected latency over surviving scenarios"
plot "%[1]s" u 1:2 w lp t "HEFT", \
     "%[1]s" u 1:4 w lp t "CAFT", \
     "%[1]s" u 1:6 w lp t "FTSA", \
     "%[1]s" u 1:8 w lp t "FTBAR", \
     "%[1]s" u 1:10 w lp t "HOFT"

set ylabel "Unreliability"
set title "(b) probability of losing a task"
plot "%[1]s" u 1:3 w lp t "HEFT", \
     "%[1]s" u 1:5 w lp t "CAFT", \
     "%[1]s" u 1:7 w lp t "FTSA", \
     "%[1]s" u 1:9 w lp t "FTBAR", \
     "%[1]s" u 1:11 w lp t "HOFT"
unset multiplot
`, dataFile)
	return err
}
