package expt

import (
	"bytes"
	"fmt"
	"io"
	"testing"
)

// TestRunWorkerCountInvariance is the engine's core contract: the same
// Config must produce identical []Point — down to the rendered bytes —
// whether the work units run on one goroutine or many.
func TestRunWorkerCountInvariance(t *testing.T) {
	cfg, _ := FigureConfig(1, 6, 99)
	cfg.Granularities = []float64{0.4, 1.2}

	cfg.Workers = 1
	p1, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	cfg.Workers = 8
	p8, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	if len(p1) != len(p8) {
		t.Fatalf("point counts %d vs %d", len(p1), len(p8))
	}
	for i := range p1 {
		// Compare rendered representations: struct equality would report
		// spurious diffs on NaN fields (empty crash series), where
		// NaN != NaN even for identical points.
		a, b := fmt.Sprintf("%+v", p1[i]), fmt.Sprintf("%+v", p8[i])
		if a != b {
			t.Errorf("point %d differs between workers=1 and workers=8:\n%s\n%s", i, a, b)
		}
	}
	var b1, b8 bytes.Buffer
	if err := WriteGnuplotData(&b1, p1); err != nil {
		t.Fatal(err)
	}
	if err := WriteGnuplotData(&b8, p8); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b8.Bytes()) {
		t.Errorf("rendered data differs:\n%s\nvs\n%s", b1.String(), b8.String())
	}
}

// TestExtrasWorkerCountInvariance pins the same contract for the four
// ablation tables, which share the work-unit engine.
func TestExtrasWorkerCountInvariance(t *testing.T) {
	runners := []struct {
		name string
		fn   func(w io.Writer, graphs int, seed int64, workers int) error
	}{
		{"messages", RunMessages},
		{"ablation", RunAblation},
		{"accuracy", RunAccuracy},
		{"sparse", RunSparse},
	}
	for _, r := range runners {
		var b1, b7 bytes.Buffer
		if err := r.fn(&b1, 2, 5, 1); err != nil {
			t.Fatalf("%s workers=1: %v", r.name, err)
		}
		if err := r.fn(&b7, 2, 5, 7); err != nil {
			t.Fatalf("%s workers=7: %v", r.name, err)
		}
		if !bytes.Equal(b1.Bytes(), b7.Bytes()) {
			t.Errorf("%s output differs between worker counts:\n%s\nvs\n%s", r.name, b1.String(), b7.String())
		}
	}
}

// TestCrashSampleAccounting checks the Point bookkeeping: every crash
// draw is either averaged (the *cN counts), a genuine task loss, or a
// replay error — and for the resilient default variants nothing is
// ever lost.
func TestCrashSampleAccounting(t *testing.T) {
	cfg, _ := FigureConfig(2, 5, 17)
	cfg.Granularities = []float64{1.0}
	pts, err := cfg.Run()
	if err != nil {
		t.Fatal(err)
	}
	pt := pts[0]
	if pt.FTSAcN != cfg.Graphs || pt.FTBARcN != cfg.Graphs || pt.CAFTcN != cfg.Graphs {
		t.Errorf("resilient variants dropped crash samples: %d/%d/%d of %d",
			pt.FTSAcN, pt.FTBARcN, pt.CAFTcN, cfg.Graphs)
	}
	if pt.TasksLost != 0 || pt.ReplayErrors != 0 {
		t.Errorf("lost=%d replayErrors=%d, want 0/0", pt.TasksLost, pt.ReplayErrors)
	}

	// A crash draw that loses a CAFT task (as the unsafe paper-locking
	// ablation does, see package core's doc comment) must land in
	// TasksLost — not in ReplayErrors, and not in the averages.
	ok := func(latC, ovC float64) unitMeas { return unitMeas{latC: latC, ovC: ovC, crashOK: true} }
	units := []unitResult{
		{ftsa: ok(200, 10), ftbar: ok(300, 20), caft: ok(100, 5), crash: MCTally{Survived: 3}},
		{ftsa: ok(400, 30), ftbar: ok(500, 40), caft: unitMeas{}, crash: MCTally{Survived: 2, Lost: 1}},
	}
	pt = mergePoint(1, units)
	if pt.TasksLost != 1 || pt.ReplayErrors != 0 {
		t.Errorf("lost=%d replayErrors=%d, want 1/0", pt.TasksLost, pt.ReplayErrors)
	}
	if pt.FTSAcN != 2 || pt.FTBARcN != 2 || pt.CAFTcN != 1 {
		t.Errorf("crash samples %d/%d/%d, want 2/2/1", pt.FTSAcN, pt.FTBARcN, pt.CAFTcN)
	}
	if pt.FTSAc != 3 || pt.FTBARc != 4 || pt.CAFTc != 1 {
		t.Errorf("crash means %v/%v/%v, want 3/4/1", pt.FTSAc, pt.FTBARc, pt.CAFTc)
	}
	if pt.OvFTSAc != 20 || pt.OvFTBARc != 30 || pt.OvCAFTc != 5 {
		t.Errorf("crash overheads %v/%v/%v, want 20/30/5", pt.OvFTSAc, pt.OvFTBARc, pt.OvCAFTc)
	}
}
