package gen

import (
	"strings"
	"testing"
)

func TestCholeskyStructure(t *testing.T) {
	g := Cholesky(3, 50)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// n=3: 3 POTRF + 3 TRSM (2+1) + 3 SYRK (2+1) + 1 GEMM = 10 tasks.
	if g.NumTasks() != 10 {
		t.Fatalf("tasks = %d, want 10", g.NumTasks())
	}
	// The first POTRF is the only entry.
	entries := g.Entries()
	if len(entries) != 1 || !strings.HasPrefix(g.Name(entries[0]), "POTRF(0)") {
		t.Fatalf("entries = %v", entries)
	}
	// The last POTRF is an exit.
	foundLastPotrf := false
	for _, x := range g.Exits() {
		if g.Name(x) == "POTRF(2)" {
			foundLastPotrf = true
		}
	}
	if !foundLastPotrf {
		t.Fatal("POTRF(2) is not an exit")
	}
}

func TestCholeskyTaskCountFormula(t *testing.T) {
	// Tasks: n POTRF + n(n-1)/2 TRSM + n(n-1)/2 SYRK + sum GEMMs
	// (n(n-1)(n-2)/6).
	for n := 2; n <= 6; n++ {
		g := Cholesky(n, 10)
		want := n + n*(n-1)/2 + n*(n-1)/2 + n*(n-1)*(n-2)/6
		if g.NumTasks() != want {
			t.Fatalf("n=%d: tasks = %d, want %d", n, g.NumTasks(), want)
		}
		if err := g.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}
