package gen

import (
	"fmt"

	"caft/internal/dag"
)

// Cholesky returns the task graph of a tiled Cholesky factorization of
// an n x n tile matrix — the classic dense linear-algebra DAG used
// throughout the heterogeneous-scheduling literature. Tasks are POTRF
// (diagonal factorization), TRSM (panel solve), SYRK (diagonal update)
// and GEMM (trailing update); tileVolume is the data volume of one tile
// transfer.
func Cholesky(n int, tileVolume float64) *dag.DAG {
	g := &dag.DAG{}
	// writer[i][j] = task that last wrote tile (i,j) (i >= j).
	writer := make([][]dag.TaskID, n)
	for i := range writer {
		writer[i] = make([]dag.TaskID, n)
		for j := range writer[i] {
			writer[i][j] = -1
		}
	}
	dep := func(from, to dag.TaskID) {
		if from >= 0 {
			g.AddEdge(from, to, tileVolume)
		}
	}
	for k := 0; k < n; k++ {
		potrf := g.AddTask(fmt.Sprintf("POTRF(%d)", k))
		dep(writer[k][k], potrf)
		writer[k][k] = potrf
		for i := k + 1; i < n; i++ {
			trsm := g.AddTask(fmt.Sprintf("TRSM(%d,%d)", i, k))
			dep(potrf, trsm)
			dep(writer[i][k], trsm)
			writer[i][k] = trsm
		}
		for i := k + 1; i < n; i++ {
			syrk := g.AddTask(fmt.Sprintf("SYRK(%d,%d)", i, k))
			dep(writer[i][k], syrk)
			dep(writer[i][i], syrk)
			writer[i][i] = syrk
			for j := k + 1; j < i; j++ {
				gemm := g.AddTask(fmt.Sprintf("GEMM(%d,%d,%d)", i, j, k))
				dep(writer[i][k], gemm)
				dep(writer[j][k], gemm)
				dep(writer[i][j], gemm)
				writer[i][j] = gemm
			}
		}
	}
	return g
}
