package service

import (
	"context"
	"errors"
	"sync"

	"ftclust"
)

// Queue errors, surfaced to clients as 429 (full) and 503 (draining).
var (
	// errQueueFull reports that the bounded job queue had no free slot.
	errQueueFull = errors.New("service: job queue full")
	// errDraining reports that the server is shutting down and accepts no
	// new work (in-flight jobs still complete).
	errDraining = errors.New("service: draining, not accepting new jobs")
)

// jobQueue is a bounded FIFO of solve jobs executed by a fixed worker
// pool. Handlers block on their job's completion (the HTTP API is
// synchronous), so the pool bounds solver concurrency and the channel
// capacity bounds the backlog; anything beyond that is rejected
// immediately with errQueueFull so overload degrades crisply instead of
// queueing unboundedly.
type jobQueue struct {
	jobs    chan *job
	workers sync.WaitGroup

	mu     sync.Mutex
	closed bool
}

type job struct {
	ctx  context.Context
	fn   func(context.Context, *ftclust.Scratch)
	done chan struct{}
}

// newJobQueue starts workers goroutines serving a queue of the given
// capacity.
func newJobQueue(workers, capacity int) *jobQueue {
	q := &jobQueue{jobs: make(chan *job, capacity)}
	for i := 0; i < workers; i++ {
		q.workers.Add(1)
		go q.work()
	}
	return q
}

func (q *jobQueue) work() {
	defer q.workers.Done()
	// One solver arena per worker goroutine, reused across all jobs the
	// worker ever runs: steady-state solves allocate nothing. Safe because
	// a worker runs one job at a time and every job converts its solution
	// to wire form (fresh copies) before the next job reuses the arena.
	scratch := ftclust.NewScratch()
	for j := range q.jobs {
		// fn is responsible for honoring j.ctx (the solver checks it
		// between rounds); a job whose client is already gone returns
		// almost immediately.
		j.fn(j.ctx, scratch)
		close(j.done)
	}
}

// Do submits fn and blocks until it completes or ctx is done. fn receives
// the executing worker's private solver arena. A full queue or a draining
// server is reported synchronously. When ctx fires first the job may
// still run (the worker will pass it the canceled context, so the solver
// aborts at its next checkpoint).
func (q *jobQueue) Do(ctx context.Context, fn func(context.Context, *ftclust.Scratch)) error {
	j := &job{ctx: ctx, fn: fn, done: make(chan struct{})}
	q.mu.Lock()
	if q.closed {
		q.mu.Unlock()
		return errDraining
	}
	select {
	case q.jobs <- j:
		q.mu.Unlock()
	default:
		q.mu.Unlock()
		return errQueueFull
	}
	select {
	case <-j.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Depth returns the number of queued (not yet started) jobs.
func (q *jobQueue) Depth() int { return len(q.jobs) }

// Close stops accepting new jobs, lets the workers drain everything
// already queued, and returns when the pool has exited. Safe to call
// more than once.
func (q *jobQueue) Close() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		close(q.jobs)
	}
	q.mu.Unlock()
	q.workers.Wait()
}
