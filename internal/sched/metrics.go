package sched

// Metrics summarizes resource usage and structure of a schedule,
// reported by the experiment harness and the visualization tools.
type Metrics struct {
	Latency       float64 // max over tasks of earliest replica finish
	MakespanAll   float64 // completion of the very last replica
	Messages      int     // inter-processor transfers
	IntraComms    int     // free co-located transfers
	Replicas      int
	CommVolume    float64   // total data volume crossing the network
	CommTime      float64   // total busy time of all transfers
	ComputeTime   float64   // total busy time of all executions
	ProcBusy      []float64 // per-processor compute busy time
	SendBusy      []float64 // per-processor send-port busy time
	RecvBusy      []float64 // per-processor receive-port busy time
	LoadImbalance float64   // (max proc busy − mean proc busy) / mean
	AvgPortUtil   float64   // mean send+recv busy fraction over [0, MakespanAll]
}

// ComputeMetrics derives the metrics of a schedule.
func (s *Schedule) ComputeMetrics() Metrics {
	m := s.P.Plat.M
	out := Metrics{
		Latency:     s.ScheduledLatency(),
		MakespanAll: s.MakespanAll(),
		Replicas:    s.ReplicaCount(),
		ProcBusy:    make([]float64, m),
		SendBusy:    make([]float64, m),
		RecvBusy:    make([]float64, m),
	}
	for t := range s.Reps {
		for _, r := range s.Reps[t] {
			d := r.Finish - r.Start
			out.ComputeTime += d
			out.ProcBusy[r.Proc] += d
		}
	}
	horizon := out.MakespanAll
	for _, c := range s.Comms {
		if c.Intra {
			out.IntraComms++
			continue
		}
		out.Messages++
		out.CommVolume += c.Volume
		out.CommTime += c.Dur
		out.SendBusy[c.SrcProc] += c.Dur
		out.RecvBusy[c.DstProc] += c.Dur
		if c.Finish > horizon {
			horizon = c.Finish
		}
	}
	mean := out.ComputeTime / float64(m)
	if mean > 0 {
		max := out.ProcBusy[0]
		for _, b := range out.ProcBusy[1:] {
			if b > max {
				max = b
			}
		}
		out.LoadImbalance = (max - mean) / mean
	}
	if horizon > 0 {
		total := 0.0
		for p := 0; p < m; p++ {
			total += out.SendBusy[p] + out.RecvBusy[p]
		}
		out.AvgPortUtil = total / (2 * float64(m) * horizon)
	}
	return out
}

// CommDensity returns the schedule's communication-to-computation time
// ratio, the realized counterpart of the instance granularity.
func (mt Metrics) CommDensity() float64 {
	if mt.ComputeTime == 0 {
		return 0
	}
	return mt.CommTime / mt.ComputeTime
}
