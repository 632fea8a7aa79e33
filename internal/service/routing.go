package service

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"time"

	"ftclust/internal/obs"
)

// Cluster routing headers.
const (
	// clusterRouteHeader reports on every routed response whether this
	// node solved the key itself or proxied it to its rendezvous owner.
	clusterRouteHeader = "X-Cluster-Route"
	// clusterForwardedHeader marks a request as already forwarded once:
	// the origin node's address travels in it, and any node receiving it
	// serves locally no matter what its own (possibly stale) ring says —
	// a single-hop loop guard, so two nodes with momentarily divergent
	// views cannot ping-pong a request.
	clusterForwardedHeader = "X-Cluster-Forwarded"
	// clientIDHeader lets a caller identify itself for admission
	// control; absent, the token bucket keys on the remote address.
	clientIDHeader = "X-Client-ID"
)

// clusterRouteHeader values.
const (
	routeLocal     = "local"
	routeForwarded = "forwarded"
)

// withAdmission is the per-client token-bucket gate in front of the API
// routes. Forwarded peer traffic is exempt — the origin node already
// spent a token for the client — as are the metrics, debug and cluster
// endpoints (shedding a scrape hides the overload it should expose).
func (s *Server) withAdmission(next http.Handler) http.Handler {
	if s.limiter == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/v1/") && r.Header.Get(clusterForwardedHeader) == "" {
			ok, retryAfter := s.limiter.Allow(clientKey(r))
			if !ok {
				s.metrics.shedRate.Inc()
				s.event("shed", "reason", "ratelimit", "client", clientKey(r))
				w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds(retryAfter)))
				writeError(w, http.StatusTooManyRequests,
					errors.New("rate limit exceeded; retry after the indicated delay"))
				return
			}
		}
		next.ServeHTTP(w, r)
	})
}

// clientKey identifies the caller for admission control: the
// self-reported X-Client-ID when present (bounded length), else the
// remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get(clientIDHeader); id != "" {
		if len(id) > 64 {
			id = id[:64]
		}
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a wait as whole seconds, at least 1 — a
// Retry-After of 0 would invite an immediate identical failure.
func retryAfterSeconds(d time.Duration) int {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return secs
}

// queueRetryAfterSeconds estimates how long the current backlog needs
// to drain one slot: mean solve time × (depth+1) ÷ workers, clamped to
// [1, 60]. Before any solve has completed the mean defaults to one
// second.
func (s *Server) queueRetryAfterSeconds() int {
	avg := 1.0
	if c := s.metrics.solveLat.Count(); c > 0 {
		if m := s.metrics.solveLat.Sum() / float64(c); m > 0 {
			avg = m
		}
	}
	secs := int(math.Ceil(avg * float64(s.queue.Depth()+1) / float64(s.cfg.Workers)))
	if secs < 1 {
		secs = 1
	}
	if secs > 60 {
		secs = 60
	}
	return secs
}

// writeSolveError writes a solve-path error response; overload statuses
// carry the queue-derived Retry-After so shed clients back off for a
// meaningful interval instead of hammering.
func (s *Server) writeSolveError(w http.ResponseWriter, status int, err error) {
	if status == http.StatusTooManyRequests && w.Header().Get("Retry-After") == "" {
		w.Header().Set("Retry-After", strconv.Itoa(s.queueRetryAfterSeconds()))
	}
	writeError(w, status, err)
}

// shouldRoute reports whether a request may be proxied: cluster mode is
// on and the request did not already take its one forwarding hop.
func (s *Server) shouldRoute(hdr http.Header) bool {
	return s.cluster != nil && hdr.Get(clusterForwardedHeader) == ""
}

// forwardSolve proxies a /v1/solve request body to the key's owner and
// relays the response verbatim — status, X-Cache, Retry-After and body
// bytes — so a forwarded response is byte-identical to the one the
// owner would serve directly. The hop is recorded as a "forward" span,
// and the remote node's span subtree (returned in the trace-export
// response header) is grafted under it, so the origin's trace shows
// both legs. It reports whether the request was handled; a transport
// failure, a body read error, or an over-limit body reports false and
// the caller solves locally (the owner is probably dying or
// misbehaving; its suspicion is the gossip layer's job).
func (s *Server) forwardSolve(w http.ResponseWriter, r *http.Request, owner string, body []byte) bool {
	tr := obs.TraceFrom(r.Context())
	sp := tr.StartSpan(nil, "forward")
	sp.SetAttr("owner", owner)
	fail := func(reason string, err error) bool {
		sp.SetAttr("error", reason)
		sp.End()
		s.forwardFallback(owner, r.URL.Path, reason, err)
		return false
	}
	resp, err := s.proxyPost(r.Context(), owner, r.URL.Path, body,
		r.Header.Get(clientIDHeader), r.Header.Get(requestIDHeader), tr != nil)
	if err != nil {
		return fail("transport", err)
	}
	defer resp.Body.Close()
	// Buffer the owner's whole body before touching the ResponseWriter:
	// once WriteHeader runs the response is committed, and a read error
	// or an over-limit body discovered mid-copy would truncate what the
	// client sees with no way left to fall back locally. Reading cap+1
	// bytes distinguishes a body of exactly cap from one that overflows.
	payload, err := io.ReadAll(io.LimitReader(resp.Body, s.cfg.MaxBodyBytes+1))
	if err != nil {
		return fail("read", err)
	}
	if int64(len(payload)) > s.cfg.MaxBodyBytes {
		return fail("oversize", fmt.Errorf("owner response exceeds %d bytes", s.cfg.MaxBodyBytes))
	}
	s.stitchRemoteTrace(tr, sp, resp.Header.Get(traceExportHeader))
	if xc := resp.Header.Get("X-Cache"); xc != "" {
		w.Header().Set("X-Cache", xc)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		w.Header().Set("Retry-After", ra)
	}
	w.Header().Set(clusterRouteHeader, routeForwarded)
	writeEncoded(w, resp.StatusCode, payload)
	sp.End()
	return true
}

// stitchRemoteTrace grafts a remote span subtree (the trace-export
// response header value) under parent. A missing header is normal (the
// remote ran an older build, or the subtree outgrew even the pruned
// budget); a malformed one is recorded as an attr and dropped — decode
// validates every bound before anything touches the trace, so garbage
// bytes can never corrupt the origin's ring.
func (s *Server) stitchRemoteTrace(tr *obs.Trace, parent *obs.Span, enc string) {
	if tr == nil || enc == "" {
		return
	}
	sub, err := obs.DecodeTraceExport(enc)
	if err != nil {
		parent.SetAttr("export_error", "rejected")
		s.logger.Warn("trace export rejected", "err", err)
		return
	}
	tr.Graft(parent, sub)
}

// forwardFallback records one failed forward that the caller answers
// with a local solve: the forward-error counter, a forward-fallback
// event and a warn line, all carrying the same owner, path and reason.
func (s *Server) forwardFallback(owner, path, reason string, err error) {
	s.cluster.Metrics().ForwardErrors.Inc()
	s.event("forward-fallback", "owner", owner, "path", path, "reason", reason)
	s.logger.Warn("cluster forward failed; solving locally",
		"owner", owner, "path", path, "reason", reason, "err", err)
}

// proxyPost performs the single forwarding hop: POST body to owner,
// marked with this node's address as the loop guard, timed into the
// forward-latency histogram. requestID travels unchanged so the remote
// leg logs and traces under the origin's ID; wantTrace additionally
// asks the owner for its span subtree (the trace-export header).
func (s *Server) proxyPost(ctx context.Context, owner, path string, body []byte, clientID, requestID string, wantTrace bool) (*http.Response, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+owner+path, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(clusterForwardedHeader, s.cluster.Self())
	if clientID != "" {
		req.Header.Set(clientIDHeader, clientID)
	}
	if requestID != "" {
		req.Header.Set(requestIDHeader, requestID)
		if wantTrace {
			req.Header.Set(traceParentHeader, requestID)
		}
	}
	m := s.cluster.Metrics()
	start := time.Now()
	resp, err := s.cluster.Client().Do(req)
	if err != nil {
		return nil, err
	}
	m.Forwards.Inc()
	m.ForwardDur.ObserveDuration(time.Since(start))
	return resp, nil
}
