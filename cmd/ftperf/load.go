package main

// Closed-loop load: clients that each wait for a reply before sending
// their next request, like controllers that act on each clustering.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"ftclust/internal/obs"
)

// newHTTPClient is the one client every load goroutine shares: one
// keep-alive connection per client, no compression.
func newHTTPClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxIdleConnsPerHost: clients,
		MaxConnsPerHost:     clients,
		DisableCompression:  true,
	}}
}

type reply struct {
	status int
	cache  string // X-Cache header
	body   []byte
}

func do(ctx context.Context, hc *http.Client, method, url string, body []byte) (reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(ctx, method, url, rd)
	if err != nil {
		return reply{}, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := hc.Do(req)
	if err != nil {
		return reply{}, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, maxResponse+1))
	if err != nil {
		return reply{}, fmt.Errorf("reading %s reply: %w", url, err)
	}
	if len(b) > maxResponse {
		return reply{}, fmt.Errorf("%s reply exceeds %d bytes", url, maxResponse)
	}
	return reply{status: resp.StatusCode, cache: resp.Header.Get("X-Cache"), body: b}, nil
}

// request is one client's next POST. When expect is set and the reply
// body equals it, the sample keeps expect instead of its own copy, so
// repeated identical replies cost no memory; the checker compares again.
// A request whose body could not be built carries err and is not sent.
type request struct {
	index  int
	url    string
	body   []byte
	expect []byte
	err    error
}

// sample is one completed request.
type sample struct {
	client   int
	index    int
	lat      time.Duration
	done     time.Duration // completion, from the start of the loop
	inWindow bool          // completed before the window closed
	reqBytes int
	reply
	err error
}

// closedLoop runs one goroutine per client until next reports that the
// client is finished. next is told whether the window has closed and
// runs before the request timer starts, so body encoding is not timed.
// Samples are returned in per-client order, client by client.
func closedLoop(ctx context.Context, hc *http.Client, window time.Duration, next func(c int, closed bool) (request, bool)) []sample {
	start := time.Now()
	deadline := start.Add(window)
	out := make([][]sample, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil {
				req, ok := next(c, time.Now().After(deadline))
				if !ok {
					return
				}
				if req.err != nil {
					out[c] = append(out[c], sample{client: c, index: req.index, err: req.err})
					continue
				}
				t0 := time.Now()
				rep, err := do(ctx, hc, http.MethodPost, req.url, req.body)
				done := time.Now()
				if req.expect != nil && bytes.Equal(rep.body, req.expect) {
					rep.body = req.expect
				}
				out[c] = append(out[c], sample{
					client: c, index: req.index, lat: done.Sub(t0), done: done.Sub(start),
					inWindow: !done.After(deadline), reqBytes: len(req.body),
					reply: rep, err: err,
				})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

func scrape(ctx context.Context, hc *http.Client, url string) (*obs.PromSnapshot, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := hc.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scraping /metrics: status %d", resp.StatusCode)
	}
	return obs.ParsePrometheus(io.LimitReader(resp.Body, maxResponse))
}

// histMean returns the mean of the observations a histogram series gained
// between two scrapes (0 if none); a nil before counts from zero. The mean
// comes from the exact _sum, not from the factor-2 buckets, whose
// interpolated quantiles cannot resolve a change smaller than a bucket.
func histMean(before, after *obs.PromSnapshot, name string, labels ...string) (float64, error) {
	ha, ok := after.Hist(name, labels...)
	if !ok {
		return 0, fmt.Errorf("no histogram %s%v in /metrics", name, labels)
	}
	var sum0 float64
	var count0 int64
	if before != nil {
		hb, ok := before.Hist(name, labels...)
		if !ok {
			return 0, fmt.Errorf("no histogram %s%v in the first scrape", name, labels)
		}
		if len(hb.Bounds) != len(ha.Bounds) {
			return 0, fmt.Errorf("histogram %s changed its bucket layout", name)
		}
		sum0, count0 = hb.Sum, hb.Count
	}
	switch count := ha.Count - count0; {
	case count < 0:
		return 0, fmt.Errorf("histogram %s count went backwards (%d → %d)", name, count0, ha.Count)
	case count == 0:
		return 0, nil
	default:
		return (ha.Sum - sum0) / float64(count), nil
	}
}

// counterDelta returns how much a counter grew between two scrapes.
func counterDelta(before, after *obs.PromSnapshot, name string) (float64, error) {
	va, ok := after.Value(name)
	if !ok {
		return 0, fmt.Errorf("no counter %s in /metrics", name)
	}
	vb := 0.0
	if before != nil {
		vb, _ = before.Value(name)
	}
	return va - vb, nil
}
