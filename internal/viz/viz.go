// Package viz renders schedules as ASCII Gantt charts: one lane per
// processor for task executions, and optional lanes for the send and
// receive port occupation, which makes one-port contention visible at a
// glance.
//
//caft:deterministic
package viz

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"

	"caft/internal/sched"
)

// Options controls the rendering.
type Options struct {
	// Width is the number of character cells the time axis spans
	// (default 100).
	Width int
	// Ports adds send/recv port lanes per processor.
	Ports bool
}

// Render writes an ASCII Gantt chart of the schedule to out and returns
// the first write error.
func Render(out io.Writer, s *sched.Schedule, opt Options) error {
	w := bufio.NewWriter(out) // keeps the first write error for Flush
	width := opt.Width
	if width <= 0 {
		width = 100
	}
	horizon := s.MakespanAll()
	for _, c := range s.Comms {
		if c.Finish > horizon {
			horizon = c.Finish
		}
	}
	if horizon <= 0 {
		horizon = 1
	}
	cell := func(t float64) int {
		i := int(t / horizon * float64(width))
		if i >= width {
			i = width - 1
		}
		if i < 0 {
			i = 0
		}
		return i
	}
	m := s.P.Plat.M
	type lane struct {
		label string
		cells []rune
	}
	newLane := func(label string) *lane {
		cells := make([]rune, width)
		for i := range cells {
			cells[i] = '.'
		}
		return &lane{label: label, cells: cells}
	}
	paint := func(l *lane, start, finish float64, glyph rune, tag string) {
		a, b := cell(start), cell(finish)
		if finish > start && b <= a {
			b = a + 1
		}
		for i := a; i < b && i < width; i++ {
			l.cells[i] = glyph
		}
		// Write the tag into the bar if it fits.
		for i, r := range tag {
			if a+i >= b-0 || a+i >= width {
				break
			}
			l.cells[a+i] = r
		}
	}

	fmt.Fprintf(w, "time 0 .. %.2f (one cell = %.2f)\n", horizon, horizon/float64(width))
	for proc := 0; proc < m; proc++ {
		cl := newLane(fmt.Sprintf("P%-2d cpu ", proc))
		var reps []sched.Replica
		for t := range s.Reps {
			for _, r := range s.Reps[t] {
				if r.Proc == proc {
					reps = append(reps, r)
				}
			}
		}
		sort.Slice(reps, func(i, j int) bool { return reps[i].Start < reps[j].Start })
		for _, r := range reps {
			paint(cl, r.Start, r.Finish, '#', fmt.Sprintf("%d", r.Task))
		}
		fmt.Fprintf(w, "%s|%s|\n", cl.label, string(cl.cells))
		if !opt.Ports {
			continue
		}
		snd, rcv := newLane(fmt.Sprintf("P%-2d snd ", proc)), newLane(fmt.Sprintf("P%-2d rcv ", proc))
		for _, c := range s.Comms {
			if c.Intra {
				continue
			}
			if c.SrcProc == proc {
				paint(snd, c.Start, c.Finish, '>', fmt.Sprintf("%d", c.To))
			}
			if c.DstProc == proc {
				paint(rcv, c.Start, c.Finish, '<', fmt.Sprintf("%d", c.From))
			}
		}
		fmt.Fprintf(w, "%s|%s|\n", snd.label, string(snd.cells))
		fmt.Fprintf(w, "%s|%s|\n", rcv.label, string(rcv.cells))
	}
	return w.Flush()
}

// Summary writes a one-paragraph textual summary of the schedule.
func Summary(w io.Writer, s *sched.Schedule) {
	reps := s.ReplicaCount()
	intra := len(s.Comms) - s.MessageCount()
	fmt.Fprintf(w, "tasks: %d, replicas: %d, messages: %d (+%d intra), latency: %.2f, makespan(all replicas): %.2f\n",
		len(s.Reps), reps, s.MessageCount(), intra, s.ScheduledLatency(), s.MakespanAll())
	var lines []string
	for t := range s.Reps {
		var parts []string
		for _, r := range s.Reps[t] {
			parts = append(parts, fmt.Sprintf("copy%d@P%d[%.1f,%.1f)", r.Copy, r.Proc, r.Start, r.Finish))
		}
		lines = append(lines, fmt.Sprintf("  %s: %s", s.P.G.Name(s.Reps[t][0].Task), strings.Join(parts, " ")))
	}
	for _, l := range lines {
		fmt.Fprintln(w, l)
	}
}
