package expt

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
)

// Col renders one TSV value at fixed precision; an empty series (NaN
// mean) prints as the missing marker "-" rather than a number.
func Col(v float64, prec int) string {
	if math.IsNaN(v) {
		return "-"
	}
	return strconv.FormatFloat(v, 'f', prec, 64)
}

// gnuplotMissing marks an empty series value (NaN mean) in the data
// file; the emitted script declares it via `set datafile missing`.
const gnuplotMissing = "?"

func gnuplotVal(v float64) string {
	if math.IsNaN(v) {
		return gnuplotMissing
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WriteGnuplotData writes the full point series as a whitespace table
// consumable by gnuplot (one row per granularity, one column per
// series, with a header comment naming the columns). Empty crash
// series render as the missing marker, so gnuplot skips the point
// instead of plotting a bogus zero.
func WriteGnuplotData(w io.Writer, points []Point) error {
	// FFHOFT is appended after the original 18 columns so existing
	// scripts' 1-based column indices keep working.
	if _, err := fmt.Fprintln(w, "# g FTSA0 FTSAUB FTBAR0 FTBARUB CAFT0 CAFTUB FFCAFT FFFTBAR FTSAc FTBARc CAFTc OvFTSA0 OvFTSAc OvFTBAR0 OvFTBARc OvCAFT0 OvCAFTc FFHOFT"); err != nil {
		return err
	}
	for _, p := range points {
		cols := []float64{
			p.G, p.FTSA0, p.FTSAUB, p.FTBAR0, p.FTBARUB, p.CAFT0, p.CAFTUB, p.FFCAFT, p.FFFTBAR,
			p.FTSAc, p.FTBARc, p.CAFTc,
			p.OvFTSA0, p.OvFTSAc, p.OvFTBAR0, p.OvFTBARc, p.OvCAFT0, p.OvCAFTc,
			p.FFHOFT,
		}
		row := make([]string, len(cols))
		for i, v := range cols {
			row[i] = gnuplotVal(v)
		}
		if _, err := fmt.Fprintln(w, strings.Join(row, " ")); err != nil {
			return err
		}
	}
	return nil
}

// WriteGnuplotScript writes a gnuplot script that renders the three
// panels of a paper figure from a data file produced by
// WriteGnuplotData.
func WriteGnuplotScript(w io.Writer, figure int, dataFile string, crashes int) error {
	_, err := fmt.Fprintf(w, `set terminal pngcairo size 800,1500
set output "figure%d.png"
set datafile missing "?"
set multiplot layout 3,1 title "Figure %d"
set xlabel "Granularity"
set key top left

set ylabel "Normalized Latency"
set title "(a) latency with 0 crash, bounds, fault-free"
plot "%[3]s" u 1:2 w lp t "FTSA 0 crash", \
     "%[3]s" u 1:3 w lp t "FTSA upper bound", \
     "%[3]s" u 1:4 w lp t "FTBAR 0 crash", \
     "%[3]s" u 1:5 w lp t "FTBAR upper bound", \
     "%[3]s" u 1:6 w lp t "CAFT 0 crash", \
     "%[3]s" u 1:7 w lp t "CAFT upper bound", \
     "%[3]s" u 1:8 w lp t "FaultFree-CAFT", \
     "%[3]s" u 1:9 w lp t "FaultFree-FTBAR", \
     "%[3]s" u 1:19 w lp t "FaultFree-HOFT"

set title "(b) latency with 0 vs %[4]d crash(es)"
plot "%[3]s" u 1:2 w lp t "FTSA 0 crash", \
     "%[3]s" u 1:10 w lp t "FTSA crash", \
     "%[3]s" u 1:4 w lp t "FTBAR 0 crash", \
     "%[3]s" u 1:11 w lp t "FTBAR crash", \
     "%[3]s" u 1:6 w lp t "CAFT 0 crash", \
     "%[3]s" u 1:12 w lp t "CAFT crash"

set ylabel "Average Overhead (%%)"
set title "(c) overhead vs fault-free CAFT"
plot "%[3]s" u 1:13 w lp t "FTSA 0 crash", \
     "%[3]s" u 1:14 w lp t "FTSA crash", \
     "%[3]s" u 1:15 w lp t "FTBAR 0 crash", \
     "%[3]s" u 1:16 w lp t "FTBAR crash", \
     "%[3]s" u 1:17 w lp t "CAFT 0 crash", \
     "%[3]s" u 1:18 w lp t "CAFT crash"
unset multiplot
`, figure, figure, dataFile, crashes)
	return err
}
