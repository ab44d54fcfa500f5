package service

import (
	"bytes"
	"io"
	"net/http"
	"time"
)

// forwardedHeader marks one internal routing hop. The owner serves a
// request carrying it locally no matter what its ring says, so routing
// disagreements during membership skew (or a misconfigured peer list)
// degrade to an extra compute instead of a forwarding loop.
const forwardedHeader = "X-Caft-Forwarded"

// defaultPeerTimeout bounds one forwarded request end to end; it must
// cover the owner's compute, so it matches the generous read timeout of
// the HTTP server rather than a connect-scale value.
const defaultPeerTimeout = 60 * time.Second

// peerClient forwards /schedule requests to their owning node. One
// shared client with keep-alive pooling: the cluster is small and
// long-lived, so warm connections are the norm.
type peerClient struct {
	client http.Client
}

func newPeerClient(timeout time.Duration) *peerClient {
	if timeout <= 0 {
		timeout = defaultPeerTimeout
	}
	return &peerClient{client: http.Client{
		Timeout: timeout,
		Transport: &http.Transport{
			MaxIdleConns:        64,
			MaxIdleConnsPerHost: 16,
			IdleConnTimeout:     120 * time.Second,
		},
	}}
}

// forward re-posts body (the client's verbatim request bytes) to the
// owner and relays status, Retry-After and body back to w. The owner's
// whole body is read before anything is written, so a hop that fails
// midway never reaches the client as a truncated response. forward
// reports false — with nothing written to w — when the peer is
// unreachable, fails mid-body or answers 5xx, so the caller can fall
// back to serving locally; determinism makes the fallback
// byte-identical, just a colder cache. 2xx and 4xx answers are relayed.
func (p *peerClient) forward(w http.ResponseWriter, owner string, body []byte) bool {
	req, err := http.NewRequest(http.MethodPost, "http://"+owner+"/schedule", bytes.NewReader(body))
	if err != nil {
		return false
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(forwardedHeader, "1")
	resp, err := p.client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 500 {
		return false
	}
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return false
	}
	w.Header().Set("Content-Type", "application/json")
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.WriteHeader(resp.StatusCode)
	w.Write(out)
	return true
}

// closeIdle drops pooled peer connections; part of Service.Close.
func (p *peerClient) closeIdle() {
	if p != nil {
		p.client.CloseIdleConnections()
	}
}
