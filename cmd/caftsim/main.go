// Command caftsim regenerates the experimental data of the paper: for
// every figure (1-6) it sweeps the granularity family, schedules each
// random instance with CAFT, FTSA and FTBAR under the one-port model,
// replays crashes, and prints the panel series as TSV.
//
// Usage:
//
//	caftsim -figure 1 [-graphs 60] [-seed 1]     # all three panels of Fig. 1
//	caftsim -figure 2b                           # only panel (b) of Fig. 2
//	caftsim -figure all                          # figures 1-6
//	caftsim -figure messages                     # Prop. 5.1 message counts
//	caftsim -figure ablation                     # CAFT variant ablation (A1/A4)
//	caftsim -figure accuracy                     # macro-dataflow estimate accuracy (A3)
//	caftsim -figure sparse                       # sparse-topology extension (X1)
//	caftsim -figure reliability                  # stochastic failure models (S4)
//	caftsim -figure scale -graphs 3              # large-DAG scale study (S5)
//	caftsim -figure online                       # static vs reactive vs hybrid fault tolerance (S7)
//	caftsim -figure jitter [-alg hoft]           # execution-time-jitter predictability harness (S9)
//
// The scale study sweeps v up to 3200 tasks by default and is the
// heaviest figure by far: run it with a small -graphs value. Raising
// -vmax extends the tail through successive doublings to 100000 tasks,
// where schedulers run with bounded candidate probing and without
// FTBAR (see internal/expt.ScaleSizes); existing rows never move.
//
// Stdout is a pure function of the flags, byte-identical for any
// -workers value; stderr carries errors only. Scheduler build times
// come from perfbench, not from this command.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"caft/internal/expt"
	"caft/internal/sched"
)

func main() {
	var (
		figure  = flag.String("figure", "1", "figure to regenerate: 1..6, optionally with panel suffix a/b/c; or all, messages, ablation, accuracy, sparse, reliability, scale, online, jitter")
		graphs  = flag.Int("graphs", 60, "random graphs per point (paper: 60; use ~3 for -figure scale)")
		seed    = flag.Int64("seed", 1, "base PRNG seed")
		plot    = flag.String("plot", "", "also write gnuplot data+script for figure and reliability runs into this directory")
		workers = flag.Int("workers", 0, "concurrent work units (0 = all cores); output is identical for any value")
		vmax    = flag.Int("vmax", 3200, "scale figure: largest task count of the sweep (up to 100000)")
		alg     = flag.String("alg", "", "jitter figure: restrict to one registered scheduler (default all)")
	)
	flag.Parse()
	if err := run(os.Stdout, *figure, *graphs, *seed, *plot, *workers, *vmax, *alg); err != nil {
		fmt.Fprintln(os.Stderr, "caftsim:", err)
		os.Exit(1)
	}
}

// run dispatches one -figure invocation, writing its output to w. Flag
// values are validated up front: nonsense like -graphs 0 used to fall
// through to the engine and produce empty or degenerate TSV instead of
// an error, and a flag the chosen table ignores is an error too.
func run(w io.Writer, figure string, graphs int, seed int64, plotDir string, workers, vmax int, alg string) error {
	if graphs < 1 {
		return fmt.Errorf("-graphs must be positive, got %d", graphs)
	}
	if workers < 0 {
		return fmt.Errorf("-workers must be non-negative (0 = all cores), got %d", workers)
	}
	if alg != "" {
		if figure != "jitter" {
			return fmt.Errorf("-alg applies to -figure jitter only, not %s", figure)
		}
		if _, ok := sched.Lookup(alg); !ok {
			return fmt.Errorf("-alg %q is not a registered scheduler (want %s)", alg, strings.Join(sched.Names(), ", "))
		}
	}
	if plotDir != "" {
		switch figure {
		case "messages", "ablation", "accuracy", "sparse", "scale", "online", "jitter":
			return fmt.Errorf("-plot applies to figures 1-6, all and reliability only, not %s", figure)
		}
	}
	switch figure {
	case "all":
		for n := 1; n <= 6; n++ {
			if err := runFigure(w, n, "", graphs, seed, plotDir, workers); err != nil {
				return err
			}
		}
		return nil
	case "messages":
		return expt.RunMessages(w, graphs, seed, workers)
	case "ablation":
		return expt.RunAblation(w, graphs, seed, workers)
	case "accuracy":
		return expt.RunAccuracy(w, graphs, seed, workers)
	case "sparse":
		return expt.RunSparse(w, graphs, seed, workers)
	case "reliability":
		points, err := expt.RunReliability(w, graphs, seed, workers)
		if err != nil || plotDir == "" {
			return err
		}
		// The MTBF sweep only; the model-comparison rows have no x axis.
		return writePlot(plotDir, "reliability",
			func(w io.Writer) error { return expt.WriteReliabilityGnuplotData(w, points) },
			expt.WriteReliabilityGnuplotScript)
	case "scale":
		var sizes []int
		for _, v := range expt.ScaleSizes {
			if v <= vmax {
				sizes = append(sizes, v)
			}
		}
		if len(sizes) == 0 {
			return fmt.Errorf("-vmax %d is below the smallest scale size %d", vmax, expt.ScaleSizes[0])
		}
		return expt.RunScale(w, sizes, graphs, seed, workers)
	case "online":
		_, err := expt.RunOnline(w, graphs, seed, workers)
		return err
	case "jitter":
		_, err := expt.RunJitter(w, graphs, seed, workers, alg)
		return err
	}
	panel := ""
	num := figure
	if len(figure) == 2 && strings.ContainsAny(figure[1:], "abc") {
		num, panel = figure[:1], figure[1:]
	}
	n, err := strconv.Atoi(num)
	if err != nil {
		return fmt.Errorf("unknown figure %q", figure)
	}
	return runFigure(w, n, panel, graphs, seed, plotDir, workers)
}

func runFigure(w io.Writer, n int, panel string, graphs int, seed int64, plotDir string, workers int) error {
	cfg, err := expt.FigureConfig(n, graphs, seed)
	if err != nil {
		return err
	}
	cfg.Workers = workers
	fmt.Fprintf(w, "# Figure %d%s: m=%d eps=%d crashes=%d graphs/point=%d seed=%d\n",
		n, panel, cfg.M, cfg.Eps, cfg.Crashes, cfg.Graphs, seed)
	points, err := cfg.Run()
	if err != nil {
		return err
	}
	if panel == "" || panel == "a" {
		fmt.Fprintln(w, "## panel (a): normalized latency, 0 crash + bounds + fault-free")
		fmt.Fprintln(w, "g\tFTSA0\tFTSA-UB\tFTBAR0\tFTBAR-UB\tCAFT0\tCAFT-UB\tFF-CAFT\tFF-FTBAR\tFF-HOFT")
		for _, p := range points {
			fmt.Fprintf(w, "%.1f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\t%.2f\n",
				p.G, p.FTSA0, p.FTSAUB, p.FTBAR0, p.FTBARUB, p.CAFT0, p.CAFTUB, p.FFCAFT, p.FFFTBAR, p.FFHOFT)
		}
	}
	if panel == "" || panel == "b" {
		fmt.Fprintf(w, "## panel (b): normalized latency, 0 crash vs %d crash(es)\n", cfg.Crashes)
		fmt.Fprintln(w, "g\tFTSA0\tFTSAc\tFTBAR0\tFTBARc\tCAFT0\tCAFTc")
		for _, p := range points {
			fmt.Fprintf(w, "%.1f\t%.2f\t%s\t%.2f\t%s\t%.2f\t%s\n",
				p.G, p.FTSA0, expt.Col(p.FTSAc, 2), p.FTBAR0, expt.Col(p.FTBARc, 2), p.CAFT0, expt.Col(p.CAFTc, 2))
		}
	}
	if panel == "" || panel == "c" {
		fmt.Fprintln(w, "## panel (c): average overhead (%) vs fault-free CAFT")
		fmt.Fprintln(w, "g\tFTSA0\tFTSAc\tFTBAR0\tFTBARc\tCAFT0\tCAFTc")
		for _, p := range points {
			fmt.Fprintf(w, "%.1f\t%.1f\t%s\t%.1f\t%s\t%.1f\t%s\n",
				p.G, p.OvFTSA0, expt.Col(p.OvFTSAc, 1), p.OvFTBAR0, expt.Col(p.OvFTBARc, 1), p.OvCAFT0, expt.Col(p.OvCAFTc, 1))
		}
	}
	// Crash diagnostics concern the crash panels only; panel-a output
	// must match the panel-a section of a full run byte for byte.
	if panel == "" || panel == "b" || panel == "c" {
		for _, p := range points {
			if p.TasksLost > 0 || p.ReplayErrors > 0 {
				// Each graph's crash draw is replayed once per fault-tolerant
				// scheduler, so the denominator is 3×graphs replays per point.
				fmt.Fprintf(w, "# g=%.1f: %d of %d crash replays lost a task, %d replay error(s); surviving samples FTSA=%d FTBAR=%d CAFT=%d of %d\n",
					p.G, p.TasksLost, 3*cfg.Graphs, p.ReplayErrors, p.FTSAcN, p.FTBARcN, p.CAFTcN, cfg.Graphs)
			}
		}
	}
	if plotDir != "" {
		err := writePlot(plotDir, fmt.Sprintf("figure%d", n),
			func(w io.Writer) error { return expt.WriteGnuplotData(w, points) },
			func(w io.Writer, dataFile string) error { return expt.WriteGnuplotScript(w, n, dataFile, cfg.Crashes) })
		if err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "# messages/graph (mean): CAFT %.0f  FTSA %.0f  FTBAR %.0f  HEFT %.0f  HOFT %.0f\n",
		meanLast(points, func(p expt.Point) float64 { return p.MsgCAFT }),
		meanLast(points, func(p expt.Point) float64 { return p.MsgFTSA }),
		meanLast(points, func(p expt.Point) float64 { return p.MsgFTBAR }),
		meanLast(points, func(p expt.Point) float64 { return p.MsgHEFT }),
		meanLast(points, func(p expt.Point) float64 { return p.MsgHOFT }))
	return nil
}

// writePlot drops name.dat, written by data, and name.gp, the gnuplot
// script that script writes for that data file, into dir.
func writePlot(dir, name string, data func(io.Writer) error, script func(w io.Writer, dataFile string) error) error {
	var dat, gp bytes.Buffer
	if err := data(&dat); err != nil {
		return err
	}
	if err := script(&gp, name+".dat"); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, name+".dat"), dat.Bytes(), 0o666); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name+".gp"), gp.Bytes(), 0o666)
}

func meanLast(points []expt.Point, f func(expt.Point) float64) float64 {
	if len(points) == 0 {
		return 0
	}
	s := 0.0
	for _, p := range points {
		s += f(p)
	}
	return s / float64(len(points))
}
