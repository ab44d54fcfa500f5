package service

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// decodeRequest decodes one request body the way handleSchedule does.
func decodeRequest(body []byte) (*Request, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req Request
	if err := dec.Decode(&req); err != nil {
		return nil, err
	}
	return &req, nil
}

// TestCacheKeyPins pins the cache-key values of three requests, one per
// failure-model section of the canonical hash stream. A change to the
// stream would strand every disk-tier segment written before it, so
// any such change must be deliberate (a new stream version tag) and
// show up here.
func TestCacheKeyPins(t *testing.T) {
	online, err := os.ReadFile("../../cmd/caftd/testdata/online.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ name, body, key string }{
		{"testdata/online.json", string(online), "24ae1bf8d90ad8807d0c52d8737659bb"},
		{"weibull online", `{"alg": "caft-greedy", "eps": 1, "seed": 4,
			"generator": {"kind": "fork", "n": 6, "volume": 50},
			"platform": {"m": 5, "delayLo": 0.5, "delayHi": 1},
			"mode": "online",
			"online": {"samples": 40, "kind": "weibull", "shape": 0.7, "mtbf": 900, "seed": 11, "static": true}}`, "a55a0c9d1f042c0e8825cebf572b7049"},
		{"reliability mtbf range", `{"alg": "ftsa", "eps": 2, "seed": 2, "policy": "insertion",
			"generator": {"kind": "random", "seed": 3, "minTasks": 12, "maxTasks": 12},
			"platform": {"m": 6, "delay": 1},
			"reliability": {"samples": 256, "mtbfLo": 300, "mtbfHi": 900, "seed": 8}}`, "f37223f17b9ce5c0233a72f33912c049"},
	} {
		req, err := decodeRequest([]byte(c.body))
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := req.validate(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if got := formatKey(req.hash()); got != c.key {
			t.Errorf("%s: key %s, want %s", c.name, got, c.key)
		}
	}
}

// FuzzRequest drives arbitrary bodies through the accept path of
// handleSchedule — strict decode, validate, hash — which must never
// panic. A request validate accepts must re-encode canonically: its
// marshalled form decodes and validates again, to the same cache key.
func FuzzRequest(f *testing.F) {
	for _, name := range []string{"quickstart.json", "online.json", "quickstart_response.json"} {
		body, err := os.ReadFile("../../cmd/caftd/testdata/" + name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeRequest(body)
		if err != nil {
			return
		}
		if err := req.validate(); err != nil {
			return
		}
		key := req.hash()
		again, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request does not re-encode: %v", err)
		}
		req2, err := decodeRequest(again)
		if err != nil {
			t.Fatalf("re-encoded request does not decode: %v\n%s", err, again)
		}
		if err := req2.validate(); err != nil {
			t.Fatalf("re-encoded request rejected: %v\n%s", err, again)
		}
		if req2.hash() != key {
			t.Fatalf("re-encoding changed the cache key\n%s\n%s", body, again)
		}
	})
}
