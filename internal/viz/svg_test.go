package viz

import (
	"bytes"
	"encoding/xml"
	"errors"
	"io"
	"math/rand"
	"strings"
	"testing"

	"caft/internal/core"
	"caft/internal/dag"
	"caft/internal/platform"
	"caft/internal/sched"
	"caft/internal/timeline"
)

func TestRenderSVG(t *testing.T) {
	s := testSchedule(t)
	var buf bytes.Buffer
	if err := RenderSVG(&buf, s, SVGOptions{Title: "diamond"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"<svg", "</svg>", "diamond", "P0", "P3", "<rect"} {
		if !strings.Contains(out, want) {
			t.Errorf("SVG missing %q", want)
		}
	}
	// One bar per replica at least.
	if got := strings.Count(out, "<rect"); got < s.ReplicaCount() {
		t.Errorf("only %d rects for %d replicas", got, s.ReplicaCount())
	}
	if strings.Contains(out, "snd") {
		t.Error("port lanes drawn without Ports option")
	}
}

func TestRenderSVGPorts(t *testing.T) {
	s := testSchedule(t)
	var buf bytes.Buffer
	if err := RenderSVG(&buf, s, SVGOptions{Ports: true, Width: 640, RowHeight: 18}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.Contains(out, "snd") || !strings.Contains(out, "rcv") {
		t.Error("port lanes missing")
	}
	if s.MessageCount() > 0 && !strings.Contains(out, "→") {
		t.Error("no communication tooltips")
	}
}

// TestRenderSVGWellFormed renders task names and a title holding XML
// markup and a control character, and requires the output to parse as
// XML with the names intact.
func TestRenderSVGWellFormed(t *testing.T) {
	g := dag.New(0)
	a := g.AddTask("a<&b")
	b := g.AddTask("c\"d'\x01]]>")
	g.AddEdge(a, b, 10)
	plat := platform.New(3, 1)
	exec := platform.NewExecMatrix(g.NumTasks(), 3)
	for ti := range exec {
		for k := range exec[ti] {
			exec[ti][k] = 5
		}
	}
	p := &sched.Problem{G: g, Plat: plat, Exec: exec, Model: sched.OnePort, Policy: timeline.Append}
	s, err := core.Schedule(p, 1, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderSVG(&buf, s, SVGOptions{Title: `x < y & "z"`, Ports: true}); err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	dec := xml.NewDecoder(&buf)
	for {
		tok, err := dec.Token()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("SVG is not well-formed XML: %v", err)
		}
		if cd, ok := tok.(xml.CharData); ok {
			text.Write(cd)
		}
	}
	for _, want := range []string{`x < y & "z"`, "a<&b copy 0", "c\"d'\uFFFD]]> copy 1"} {
		if !strings.Contains(text.String(), want) {
			t.Errorf("SVG text lacks %q", want)
		}
	}
}
