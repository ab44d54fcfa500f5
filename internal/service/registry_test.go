package service

import (
	"bytes"
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"caft/internal/sched"
	"caft/internal/sched/ftsa"
)

// The drift-pin test of the registry refactor: registering a scheduler
// — with no edits anywhere in the service layer — must make it
// schedulable end-to-end through the HTTP surface, and the unknown-alg
// error must list it. Before the registry, spec.go's name table and
// compute.go's dispatch switch were maintained by hand and could drift
// apart silently.
func TestRegisteredSchedulerServableWithoutServiceEdits(t *testing.T) {
	// A distinct name and an ID far outside the in-tree range, so the
	// process-wide registration cannot collide with real schedulers in
	// sibling tests.
	sched.Register(sched.Descriptor{
		Name: "test-drift-pin", ID: 9000,
		Caps: sched.Caps{AcceptsEps: true, Append: true, Insertion: true},
		New: func(p *sched.Problem, eps int, rng *rand.Rand) (*sched.Schedule, error) {
			return ftsa.Schedule(p, eps, rng)
		},
	})

	svc := mustNew(t, Config{Workers: 1})
	defer svc.Close()
	srv := httptest.NewServer(NewHandler(svc))
	defer srv.Close()

	body := []byte(`{"alg":"test-drift-pin","eps":1,"seed":1,` +
		`"generator":{"kind":"montage","n":4,"volume":100},"platform":{"m":4,"delay":0.75}}`)
	resp, err := http.Post(srv.URL+"/schedule", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, buf.Bytes())
	}
	decoded := decodeResponse(t, buf.Bytes())
	if decoded.Alg != "test-drift-pin" || decoded.Latency <= 0 {
		t.Fatalf("served schedule implausible: %+v", decoded)
	}

	// The 400 error for unknown names is derived from sched.Names(), so
	// it must now mention the just-registered scheduler.
	req := quickReq()
	req.Alg = "nosuch"
	req.Reliability = nil
	_, err = svc.Do(context.Background(), req)
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown alg: got %v, want ErrBadRequest", err)
	}
	if !strings.Contains(err.Error(), "test-drift-pin") {
		t.Errorf("unknown-alg error does not list registered schedulers dynamically: %v", err)
	}
}

// Fault-free entries (Caps.AcceptsEps false) must reject eps != 0 at
// validation, generically — not via a hard-coded alg-name check.
func TestFaultFreeCapsRejectEps(t *testing.T) {
	svc := mustNew(t, Config{Workers: 1})
	defer svc.Close()
	for _, d := range sched.Registered() {
		if d.Caps.AcceptsEps {
			continue
		}
		req := quickReq()
		req.Alg = d.Name
		req.Eps = 1
		req.Reliability = nil
		if _, err := svc.Do(context.Background(), req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s with eps=1: got %v, want ErrBadRequest", d.Name, err)
		}
	}
}
