package viz

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"

	"caft/internal/core"
	"caft/internal/gen"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/timeline"
)

func testSchedule(t *testing.T) *sched.Schedule {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	g := gen.Diamond(2, 2, 10)
	plat := platform.New(4, 1)
	exec := platform.NewExecMatrix(g.NumTasks(), 4)
	for ti := range exec {
		for k := range exec[ti] {
			exec[ti][k] = 5
		}
	}
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
	s, err := core.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRenderBasics(t *testing.T) {
	s := testSchedule(t)
	var buf bytes.Buffer
	if err := Render(&buf, s, Options{Width: 60}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"time 0 ..", "P0 ", "P3 ", "#"} {
		if !strings.Contains(out, want) {
			t.Errorf("render output missing %q:\n%s", want, out)
		}
	}
	// One cpu lane per processor.
	if got := strings.Count(out, "cpu"); got != 4 {
		t.Errorf("cpu lanes = %d, want 4", got)
	}
	if strings.Contains(out, ">") || strings.Contains(out, "<") {
		t.Error("port lanes rendered without Ports option")
	}
}

func TestRenderPorts(t *testing.T) {
	s := testSchedule(t)
	var buf bytes.Buffer
	if err := Render(&buf, s, Options{Width: 80, Ports: true}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if strings.Count(out, "snd") != 4 || strings.Count(out, "rcv") != 4 {
		t.Errorf("port lanes missing:\n%s", out)
	}
	if s.MessageCount() > 0 && !strings.Contains(out, ">") {
		t.Error("no send occupation drawn despite messages")
	}
}

func TestRenderDefaultsAndDegenerate(t *testing.T) {
	s := testSchedule(t)
	var buf bytes.Buffer
	if err := Render(&buf, s, Options{}); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	// Default width 100: every lane line is label + 100 cells + bars.
	if len(lines[1]) < 100 {
		t.Errorf("lane too short: %d", len(lines[1]))
	}
}

func TestSummary(t *testing.T) {
	s := testSchedule(t)
	var buf bytes.Buffer
	Summary(&buf, s)
	out := buf.String()
	if !strings.Contains(out, "replicas: 12") { // 6 tasks x 2 copies
		t.Errorf("summary missing replica count:\n%s", out)
	}
	if !strings.Contains(out, "latency:") || !strings.Contains(out, "copy0@P") {
		t.Errorf("summary incomplete:\n%s", out)
	}
}

// failWriter fails every write, as a full disk or closed pipe does.
type failWriter struct{}

var errWrite = errors.New("write failed")

func (failWriter) Write([]byte) (int, error) { return 0, errWrite }

func TestRenderReportsWriteErrors(t *testing.T) {
	s := testSchedule(t)
	if err := Render(failWriter{}, s, Options{Ports: true}); !errors.Is(err, errWrite) {
		t.Errorf("Render to a failing writer returned %v, want %v", err, errWrite)
	}
	if err := RenderSVG(failWriter{}, s, SVGOptions{Ports: true}); !errors.Is(err, errWrite) {
		t.Errorf("RenderSVG to a failing writer returned %v, want %v", err, errWrite)
	}
}
