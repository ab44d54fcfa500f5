package sched

import (
	"math"
	"testing"

	"caft/internal/gen"
)

func TestComputeMetricsJoin(t *testing.T) {
	g := gen.Join(2, 4)
	p := prob(g, 3, 1)
	st := NewState(p)
	st.PlaceReplica(0, 0, 0, nil)
	st.PlaceReplica(1, 0, 1, nil)
	st.PlaceReplica(2, 0, 2, st.FullSources(2))
	mt := st.Snapshot().ComputeMetrics()
	if mt.Replicas != 3 || mt.Messages != 2 || mt.IntraComms != 0 {
		t.Fatalf("metrics = %+v", mt)
	}
	if mt.ComputeTime != 3 {
		t.Errorf("ComputeTime = %v, want 3", mt.ComputeTime)
	}
	if mt.CommVolume != 8 || mt.CommTime != 8 {
		t.Errorf("comm volume/time = %v/%v, want 8/8", mt.CommVolume, mt.CommTime)
	}
	if mt.ProcBusy[0] != 1 || mt.ProcBusy[1] != 1 || mt.ProcBusy[2] != 1 {
		t.Errorf("ProcBusy = %v", mt.ProcBusy)
	}
	// Perfectly balanced: zero imbalance.
	if mt.LoadImbalance != 0 {
		t.Errorf("LoadImbalance = %v", mt.LoadImbalance)
	}
	if d := mt.CommDensity(); math.Abs(d-8.0/3.0) > 1e-12 {
		t.Errorf("CommDensity = %v", d)
	}
	if mt.AvgPortUtil <= 0 || mt.AvgPortUtil > 1 {
		t.Errorf("AvgPortUtil = %v", mt.AvgPortUtil)
	}
}

func TestMetricsImbalanceAndOrdering(t *testing.T) {
	g := gen.Chain(3, 0.001) // negligible comm
	p := prob(g, 2, 2)
	st := NewState(p)
	// All three tasks end up on one processor (cheapest chain).
	st.PlaceReplica(0, 0, 0, nil)
	st.PlaceReplica(1, 0, 0, st.FullSources(1))
	st.PlaceReplica(2, 0, 0, st.FullSources(2))
	mt := st.Snapshot().ComputeMetrics()
	// mean busy = 3; P0 busy 6 => imbalance (6-3)/3 = 1.
	if mt.LoadImbalance != 1 {
		t.Errorf("LoadImbalance = %v, want 1", mt.LoadImbalance)
	}
	if mt.ProcBusy[0] != 6 || mt.ProcBusy[1] != 0 {
		t.Errorf("ProcBusy = %v, want [6 0]", mt.ProcBusy)
	}
}

func TestMetricsEmptySchedule(t *testing.T) {
	g := gen.Chain(1, 1)
	p := prob(g, 2, 1)
	st := NewState(p)
	st.PlaceReplica(0, 0, 1, nil)
	mt := st.Snapshot().ComputeMetrics()
	if mt.Messages != 0 || mt.CommDensity() != 0 {
		t.Errorf("metrics = %+v", mt)
	}
}
