package service

import (
	"bytes"
	"context"
	"testing"
)

// onlineReq is the canonical online-mode test request: quickstart's
// problem served with the reactive makespan distribution.
func onlineReq() *Request {
	r := quickReq()
	r.Reliability = nil
	r.Mode = "online"
	r.Online = &OnlineSpec{ReliabilitySpec: ReliabilitySpec{Samples: 96, MTBF: 4000, Seed: 5}}
	return r
}

// TestServeOnlineMode serves an online-mode request and checks the
// distribution section: every sample accounted for, quantiles ordered,
// and the reactive engine re-placing work under a failure regime that
// certainly kills mid-run.
func TestServeOnlineMode(t *testing.T) {
	svc := mustNew(t, Config{Workers: 2, MCWorkers: 2})
	defer svc.Close()
	raw, err := svc.Do(context.Background(), onlineReq())
	if err != nil {
		t.Fatal(err)
	}
	resp := decodeResponse(t, raw)
	if resp.Online == nil {
		t.Fatal("online section missing")
	}
	o := resp.Online
	if o.Samples+o.ReplayErrors != 96 {
		t.Fatalf("accounted %d+%d of 96 samples", o.Samples, o.ReplayErrors)
	}
	if o.MeanMakespan == nil || o.MinMakespan == nil || o.P50Makespan == nil || o.P90Makespan == nil || o.MaxMakespan == nil {
		t.Fatalf("distribution incomplete: %+v", o)
	}
	if !(*o.MinMakespan <= *o.P50Makespan && *o.P50Makespan <= *o.P90Makespan && *o.P90Makespan <= *o.MaxMakespan) {
		t.Fatalf("quantiles out of order: %+v", o)
	}
	if *o.MeanMakespan < resp.Latency {
		t.Fatalf("mean online makespan %v below the fault-free latency %v", *o.MeanMakespan, resp.Latency)
	}
	// MTBF = 4000 vs latency in the thousands: crashes are frequent
	// enough that the re-mapper must have fired.
	if o.MeanRescheduled <= 0 {
		t.Fatalf("no reactive re-placements under MTBF %v with latency %v", 4000.0, resp.Latency)
	}
	// Static mode of the same problem: no re-placements, and losses
	// appear where the reactive mode had none.
	static := onlineReq()
	static.Online.Static = true
	rawStatic, err := svc.Do(context.Background(), static)
	if err != nil {
		t.Fatal(err)
	}
	so := decodeResponse(t, rawStatic).Online
	if so == nil || so.MeanRescheduled != 0 {
		t.Fatalf("static online run re-placed work: %+v", so)
	}
	if so.Lost <= o.Lost {
		t.Fatalf("static mode lost %d runs, reactive %d — expected replication alone to lose more under this regime", so.Lost, o.Lost)
	}
}

// TestOnlineResponsesDeterministic pins online-mode responses across
// worker-pool configurations and serve/cache paths: byte-identical.
func TestOnlineResponsesDeterministic(t *testing.T) {
	var first []byte
	for _, cfg := range []Config{{Workers: 1, MCWorkers: 1}, {Workers: 4, MCWorkers: 8}} {
		svc := mustNew(t, cfg)
		raw, err := svc.Do(context.Background(), onlineReq())
		if err != nil {
			t.Fatal(err)
		}
		again, err := svc.Do(context.Background(), onlineReq())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatal("cache hit served different bytes")
		}
		if first == nil {
			first = raw
		} else if !bytes.Equal(first, raw) {
			t.Fatal("online response differs across worker configurations")
		}
		st := svc.Stats()
		if st.Misses != 1 || st.Hits != 1 {
			t.Fatalf("stats misses=%d hits=%d, want 1/1", st.Misses, st.Hits)
		}
		svc.Close()
	}
}

// TestOnlineValidationAndHash covers the new request surface: mode and
// spec must be set together, bad specs are rejected, and the mode and
// every online field participate in the cache key while the default
// spelling does not.
func TestOnlineValidationAndHash(t *testing.T) {
	bad := []func(r *Request){
		func(r *Request) { r.Mode = "online"; r.Online = nil },
		func(r *Request) { r.Mode = "offline" },
		func(r *Request) { r.Online = &OnlineSpec{ReliabilitySpec: ReliabilitySpec{Samples: 1, MTBF: 1}} }, // spec without mode
		func(r *Request) {
			r.Mode = "online"
			r.Online = &OnlineSpec{ReliabilitySpec: ReliabilitySpec{Samples: 0, MTBF: 1}}
		},
		func(r *Request) {
			r.Mode = "online"
			r.Online = &OnlineSpec{ReliabilitySpec: ReliabilitySpec{Samples: maxOnlineSamples + 1, MTBF: 1}}
		},
		func(r *Request) {
			r.Mode = "online"
			r.Online = &OnlineSpec{ReliabilitySpec: ReliabilitySpec{Samples: 8}}
		}, // no MTBF
		func(r *Request) {
			r.Mode = "online"
			r.Online = &OnlineSpec{ReliabilitySpec: ReliabilitySpec{Samples: 8, MTBF: 1, MTBFLo: 1, MTBFHi: 2}}
		},
		func(r *Request) {
			r.Mode = "online"
			r.Online = &OnlineSpec{ReliabilitySpec: ReliabilitySpec{Samples: 8, MTBF: 1, Kind: "weibull"}}
		},
		func(r *Request) {
			r.Mode = "online"
			r.Online = &OnlineSpec{ReliabilitySpec: ReliabilitySpec{Samples: 8, MTBF: 1, Shape: 2}}
		},
	}
	for i, mutate := range bad {
		r := quickReq()
		r.Reliability = nil
		mutate(r)
		if err := r.validate(); err == nil {
			t.Errorf("bad online request %d accepted", i)
		}
	}

	base := onlineReq()
	if err := base.validate(); err != nil {
		t.Fatal(err)
	}
	spelled := onlineReq()
	spelled.Mode = "online"
	spelled.Online.Kind = "exponential"
	if base.hash() != spelled.hash() {
		t.Error("default spelling split the cache key")
	}
	noMode := quickReq()
	noMode.Reliability = nil
	schedule := quickReq()
	schedule.Reliability = nil
	schedule.Mode = "schedule"
	if noMode.hash() != schedule.hash() {
		t.Error("explicit schedule mode split the cache key")
	}
	variants := []func(r *Request){
		func(r *Request) { r.Online.Samples = 97 },
		func(r *Request) { r.Online.MTBF = 4001 },
		func(r *Request) { r.Online.Seed = 6 },
		func(r *Request) { r.Online.Static = true },
		func(r *Request) { r.Online.Kind = "weibull"; r.Online.Shape = 2 },
		func(r *Request) { r.Online.MTBF = 0; r.Online.MTBFLo = 100; r.Online.MTBFHi = 200 },
	}
	for i, mutate := range variants {
		v := onlineReq()
		mutate(v)
		if err := v.validate(); err != nil {
			t.Fatalf("variant %d invalid: %v", i, err)
		}
		if v.hash() == base.hash() {
			t.Errorf("online variant %d shares the base cache key", i)
		}
	}
	if noMode.hash() == base.hash() {
		t.Error("online mode does not change the cache key")
	}
}

// TestOnlineHashAllocFree keeps the new mode fields on the
// allocation-free accept path.
func TestOnlineHashAllocFree(t *testing.T) {
	r := onlineReq()
	allocs := testing.AllocsPerRun(200, func() {
		if err := r.validate(); err != nil {
			t.Fatal(err)
		}
		_ = r.hash()
	})
	if allocs != 0 {
		t.Fatalf("validate+hash of an online request allocates %.1f/op, want 0", allocs)
	}
}
