package viz

import (
	"bufio"
	"encoding/xml"
	"fmt"
	"io"
	"strings"

	"caft/internal/sched"
)

// SVGOptions controls RenderSVG.
type SVGOptions struct {
	// Width of the drawing area in pixels (default 960).
	Width int
	// RowHeight per lane in pixels (default 22).
	RowHeight int
	// Ports adds send/receive lanes per processor.
	Ports bool
	// Title is drawn above the chart.
	Title string
}

// palette assigns stable colors per task.
var palette = []string{
	"#4e79a7", "#f28e2b", "#e15759", "#76b7b2", "#59a14f",
	"#edc948", "#b07aa1", "#ff9da7", "#9c755f", "#bab0ac",
}

// RenderSVG writes the schedule as a self-contained SVG Gantt chart:
// one lane per processor (plus optional port lanes), colored bars per
// task with replica labels, and a time axis. The title and the task
// names are escaped, so the output is well-formed XML whatever they
// hold. It returns the first error writing to out.
func RenderSVG(out io.Writer, s *sched.Schedule, opt SVGOptions) error {
	w := bufio.NewWriter(out) // keeps the first write error for Flush
	if opt.Width <= 0 {
		opt.Width = 960
	}
	if opt.RowHeight <= 0 {
		opt.RowHeight = 22
	}
	const labelW = 70
	horizon := s.MakespanAll()
	for _, c := range s.Comms {
		if c.Finish > horizon {
			horizon = c.Finish
		}
	}
	if horizon <= 0 {
		horizon = 1
	}
	m := s.P.Plat.M
	lanesPerProc := 1
	if opt.Ports {
		lanesPerProc = 3
	}
	rows := m * lanesPerProc
	top := 30
	height := top + rows*opt.RowHeight + 30
	x := func(t float64) float64 {
		return labelW + t/horizon*float64(opt.Width-labelW-10)
	}
	laneY := func(row int) int { return top + row*opt.RowHeight }

	fmt.Fprintf(w, `<svg xmlns="http://www.w3.org/2000/svg" width="%d" height="%d" font-family="monospace" font-size="11">`+"\n", opt.Width, height)
	if opt.Title != "" {
		fmt.Fprintf(w, `<text x="%d" y="18" font-size="14">%s</text>`+"\n", labelW, xmlText(opt.Title))
	}
	// Lane backgrounds and labels.
	for proc := 0; proc < m; proc++ {
		base := proc * lanesPerProc
		names := []string{fmt.Sprintf("P%d", proc)}
		if opt.Ports {
			names = append(names, fmt.Sprintf("P%d snd", proc), fmt.Sprintf("P%d rcv", proc))
		}
		for i, name := range names {
			y := laneY(base + i)
			fill := "#f6f6f6"
			if (base+i)%2 == 1 {
				fill = "#ececec"
			}
			fmt.Fprintf(w, `<rect x="%d" y="%d" width="%d" height="%d" fill="%s"/>`+"\n",
				labelW, y, opt.Width-labelW-10, opt.RowHeight-2, fill)
			fmt.Fprintf(w, `<text x="4" y="%d">%s</text>`+"\n", y+opt.RowHeight-8, name)
		}
	}
	// Task bars.
	for t := range s.Reps {
		color := palette[t%len(palette)]
		for _, r := range s.Reps[t] {
			row := r.Proc * lanesPerProc
			y := laneY(row)
			x0, x1 := x(r.Start), x(r.Finish)
			fmt.Fprintf(w, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" stroke="#333" stroke-width="0.5"><title>%s copy %d on P%d [%.2f, %.2f)</title></rect>`+"\n",
				x0, y+1, x1-x0, opt.RowHeight-4, color, xmlText(s.P.G.Name(r.Task)), r.Copy, r.Proc, r.Start, r.Finish)
			if x1-x0 > 18 {
				fmt.Fprintf(w, `<text x="%.1f" y="%d" fill="#fff">%d</text>`+"\n", x0+2, y+opt.RowHeight-8, r.Task)
			}
		}
	}
	// Communication bars on port lanes.
	if opt.Ports {
		for _, c := range s.Comms {
			if c.Intra {
				continue
			}
			color := palette[int(c.From)%len(palette)]
			x0, x1 := x(c.Start), x(c.Finish)
			ys := laneY(c.SrcProc*lanesPerProc + 1)
			yr := laneY(c.DstProc*lanesPerProc + 2)
			for _, y := range []int{ys, yr} {
				fmt.Fprintf(w, `<rect x="%.1f" y="%d" width="%.1f" height="%d" fill="%s" opacity="0.6"><title>%d→%d vol %.1f [%.2f, %.2f)</title></rect>`+"\n",
					x0, y+3, x1-x0, opt.RowHeight-8, color, c.From, c.To, c.Volume, c.Start, c.Finish)
			}
		}
	}
	// Time axis.
	axisY := top + rows*opt.RowHeight + 12
	fmt.Fprintf(w, `<line x1="%d" y1="%d" x2="%d" y2="%d" stroke="#333"/>`+"\n", labelW, axisY-8, opt.Width-10, axisY-8)
	for i := 0; i <= 10; i++ {
		tv := horizon * float64(i) / 10
		fmt.Fprintf(w, `<text x="%.1f" y="%d" fill="#333">%.0f</text>`+"\n", x(tv)-8, axisY+4, tv)
	}
	fmt.Fprintln(w, `</svg>`)
	return w.Flush()
}

// xmlText escapes s as XML character data: markup characters become
// entities, and characters XML cannot hold become U+FFFD.
func xmlText(s string) string {
	var b strings.Builder
	xml.EscapeText(&b, []byte(s)) // writing to a strings.Builder cannot fail
	return b.String()
}
