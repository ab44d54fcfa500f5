package expt

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

func TestFigureConfigs(t *testing.T) {
	cases := []struct {
		n               int
		m, eps, crashes int
		firstG, lastG   float64
	}{
		{1, 10, 1, 1, 0.2, 2.0},
		{2, 10, 3, 2, 0.2, 2.0},
		{3, 20, 5, 3, 0.2, 2.0},
		{4, 10, 1, 1, 1, 10},
		{5, 10, 3, 2, 1, 10},
		{6, 20, 5, 3, 1, 10},
	}
	for _, c := range cases {
		cfg, err := FigureConfig(c.n, 60, 1)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.M != c.m || cfg.Eps != c.eps || cfg.Crashes != c.crashes {
			t.Errorf("figure %d: m=%d eps=%d crashes=%d", c.n, cfg.M, cfg.Eps, cfg.Crashes)
		}
		gs := cfg.Granularities
		if len(gs) != 10 || gs[0] != c.firstG || gs[9] != c.lastG {
			t.Errorf("figure %d: granularities %v", c.n, gs)
		}
		if cfg.Graphs != 60 {
			t.Errorf("figure %d: graphs = %d", c.n, cfg.Graphs)
		}
	}
	if _, err := FigureConfig(7, 60, 1); err == nil {
		t.Error("accepted figure 7")
	}
}

func TestGranularityFamilies(t *testing.T) {
	a := GranularityA()
	if len(a) != 10 || a[0] != 0.2 || a[4] != 1.0 {
		t.Errorf("family A = %v", a)
	}
	b := GranularityB()
	if len(b) != 10 || b[0] != 1 || b[9] != 10 {
		t.Errorf("family B = %v", b)
	}
}

func TestGenInstanceMatchesConfig(t *testing.T) {
	cfg, _ := FigureConfig(1, 2, 1)
	rng := rand.New(rand.NewSource(1))
	p := cfg.GenInstance(rng, 0.6)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Plat.M != 10 {
		t.Errorf("m = %d", p.Plat.M)
	}
	g := p.G.Granularity(p.Exec.Slowest(), p.Plat.MaxDelay())
	if g < 0.599 || g > 0.601 {
		t.Errorf("granularity = %v, want 0.6", g)
	}
	v := p.G.NumTasks()
	if v < 80 || v > 120 {
		t.Errorf("tasks = %d", v)
	}
}

func TestDrawCrashes(t *testing.T) {
	cfg := Config{M: 5, Crashes: 3}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 20; i++ {
		c := cfg.DrawCrashes(rng)
		if len(c) != 3 {
			t.Fatalf("drew %d crashes, want 3", len(c))
		}
		for p := range c {
			if p < 0 || p >= 5 {
				t.Fatalf("crash processor %d out of range", p)
			}
		}
	}
	// More crashes than processors: capped at M.
	cfg = Config{M: 2, Crashes: 9}
	if c := cfg.DrawCrashes(rng); len(c) != 2 {
		t.Fatalf("drew %d crashes on 2 procs", len(c))
	}
}

// Miniature end-to-end figure: sane values, no task losses, expected
// orderings between the series.
func TestRunFigureMiniature(t *testing.T) {
	cfg, _ := FigureConfig(1, 3, 7)
	cfg.Granularities = []float64{0.4, 1.6}
	points, err := cfg.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("%d points", len(points))
	}
	for _, pt := range points {
		if pt.TasksLost != 0 {
			t.Errorf("g=%v: %d crash replays lost tasks", pt.G, pt.TasksLost)
		}
		// Fault-tolerant latencies dominate the fault-free reference.
		if pt.CAFT0 < pt.FFCAFT-1e-9 {
			t.Errorf("g=%v: CAFT0 %v below fault-free %v", pt.G, pt.CAFT0, pt.FFCAFT)
		}
		// Upper bounds dominate the 0-crash latencies.
		if pt.CAFTUB < pt.CAFT0-1e-9 || pt.FTSAUB < pt.FTSA0-1e-9 || pt.FTBARUB < pt.FTBAR0-1e-9 {
			t.Errorf("g=%v: an upper bound fell below its latency", pt.G)
		}
		// Overheads of fault-tolerant schedules are positive.
		if pt.OvCAFT0 < 0 || pt.OvFTSA0 < 0 {
			t.Errorf("g=%v: negative overhead", pt.G)
		}
		// Crash latencies are positive and finite.
		if pt.CAFTc <= 0 || pt.FTSAc <= 0 || pt.FTBARc <= 0 {
			t.Errorf("g=%v: bad crash latency", pt.G)
		}
		if pt.MsgCAFT <= 0 || pt.MsgCAFT > pt.MsgFTSA*1.2 {
			t.Errorf("g=%v: message counts CAFT %v vs FTSA %v", pt.G, pt.MsgCAFT, pt.MsgFTSA)
		}
	}
	// Latency grows with granularity (computation dominates).
	if points[1].CAFT0 <= points[0].CAFT0 {
		t.Errorf("latency did not grow with granularity: %v -> %v", points[0].CAFT0, points[1].CAFT0)
	}
}

func TestRunIsDeterministic(t *testing.T) {
	cfg, _ := FigureConfig(1, 2, 42)
	cfg.Granularities = []float64{1.0}
	p1, err := cfg.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := cfg.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1[0] != p2[0] {
		t.Fatalf("same seed produced different points:\n%+v\n%+v", p1[0], p2[0])
	}
}

func TestRunProgressCallback(t *testing.T) {
	cfg, _ := FigureConfig(1, 1, 1)
	cfg.Granularities = []float64{0.2, 0.4, 0.6}
	n := 0
	if _, err := cfg.Run(func(Point) { n++ }); err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("progress called %d times, want 3", n)
	}
}

func TestRunMessagesOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := RunMessages(&buf, 2, 1, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"outforest\t0", "fork\t3", "random\t1"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing row %q in:\n%s", want, out)
		}
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != 2+12 {
		t.Errorf("unexpected row count:\n%s", out)
	}
}

func TestRunAblationOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAblation(&buf, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"portfolio", "greedy", "full-only", "paper-locking"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing variant %q", want)
		}
	}
}

func TestRunAccuracyShowsMisprediction(t *testing.T) {
	var buf bytes.Buffer
	if err := RunAccuracy(&buf, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2+10 {
		t.Fatalf("row count %d:\n%s", len(lines), buf.String())
	}
	// First data row (g=0.2): macro estimate must undershoot the replay.
	var g, est, real, aware float64
	var mis string
	if _, err := fmt_sscan(lines[2], &g, &est, &real, &aware, &mis); err != nil {
		t.Fatal(err)
	}
	if real <= est {
		t.Errorf("one-port replay %v should exceed macro estimate %v", real, est)
	}
}

func TestRunSparseOutput(t *testing.T) {
	var buf bytes.Buffer
	if err := RunSparse(&buf, 1, 1, 1); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"clique", "hypercube", "ring"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing topology %q", want)
		}
	}
	if strings.Contains(out, "NaN") {
		t.Error("NaN in sparse output")
	}
}

// fmt_sscan parses a TSV data row of the accuracy table.
func fmt_sscan(line string, g, est, real, aware *float64, mis *string) (int, error) {
	fields := strings.Fields(line)
	if len(fields) != 5 {
		return 0, fmt.Errorf("bad row %q", line)
	}
	var err error
	for i, dst := range []*float64{g, est, real, aware} {
		if *dst, err = strconv.ParseFloat(fields[i], 64); err != nil {
			return i, err
		}
	}
	*mis = fields[4]
	return 5, nil
}

func TestGnuplotEmitters(t *testing.T) {
	cfg, _ := FigureConfig(1, 1, 1)
	cfg.Granularities = []float64{0.2, 1.0}
	points, err := cfg.Run(nil)
	if err != nil {
		t.Fatal(err)
	}
	var data bytes.Buffer
	if err := WriteGnuplotData(&data, points); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(data.String()), "\n")
	if len(lines) != 3 { // header + 2 points
		t.Fatalf("data rows = %d", len(lines))
	}
	if got := len(strings.Fields(lines[1])); got != 19 {
		t.Fatalf("columns = %d, want 19", got)
	}
	var script bytes.Buffer
	if err := WriteGnuplotScript(&script, 1, "figure1.dat", 1); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"multiplot", "figure1.dat", "CAFT upper bound", "Average Overhead"} {
		if !strings.Contains(script.String(), want) {
			t.Errorf("script missing %q", want)
		}
	}
	if strings.Contains(script.String(), "%!") {
		t.Errorf("format verb error in script:\n%s", script.String())
	}
}
