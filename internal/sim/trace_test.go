package sim

import (
	"bytes"
	"encoding/csv"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"caft/internal/core"
)

func TestWriteTraceCSV(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := randomProblem(rng, 20, 4)
	s, err := core.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	r := mustReplayer(t, s).Replay(nil)
	var buf bytes.Buffer
	if err := r.WriteTraceCSV(&buf); err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(strings.NewReader(buf.String())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	// Header + one row per replica + one per comm.
	want := 1 + s.ReplicaCount() + len(s.Comms)
	if len(records) != want {
		t.Fatalf("rows = %d, want %d", len(records), want)
	}
	if records[0][0] != "kind" {
		t.Fatalf("header = %v", records[0])
	}
	// With no crashes everything is done; rows are start-ordered.
	prev := -1.0
	for _, rec := range records[1:] {
		if rec[9] != "done" {
			t.Fatalf("dead op in crash-free trace: %v", rec)
		}
		var start float64
		if _, err := parseF(rec[7], &start); err != nil {
			t.Fatal(err)
		}
		if start < prev {
			t.Fatalf("trace not ordered: %v after %v", start, prev)
		}
		prev = start
	}
}

func TestWriteTraceCSVWithCrash(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	p := randomProblem(rng, 20, 4)
	s, err := core.Schedule(p, 1, rng)
	if err != nil {
		t.Fatal(err)
	}
	r := mustReplayer(t, s).Replay(map[int]bool{0: true})
	var buf bytes.Buffer
	if err := r.WriteTraceCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "dead") {
		t.Fatal("crash trace contains no dead operations")
	}
}

func parseF(s string, out *float64) (int, error) {
	v, err := strconv.ParseFloat(s, 64)
	*out = v
	return 1, err
}
