package main

// The ftserved child process: start on a free loopback port, wait for
// /healthz, read its peak RSS, and stop it with SIGTERM.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// maxResponse caps every response body the harness reads; the largest
// (a 5000-node solution, a /metrics exposition) is well under 1 MiB.
const maxResponse = 16 << 20

// startTimeout bounds exec-to-healthy; stopTimeout bounds SIGTERM-to-exit.
const (
	startTimeout = 30 * time.Second
	stopTimeout  = 60 * time.Second
)

type server struct {
	cmd    *exec.Cmd
	url    string
	waiter sync.WaitGroup // the goroutine reaping the process
	exited chan struct{}  // closed once the process is reaped
	err    error          // the process's exit status, valid after exited is closed
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startServer execs ftserved and returns once /healthz answers 200.
func startServer(ctx context.Context, bin string, hc *http.Client) (*server, error) {
	port, err := freePort()
	if err != nil {
		return nil, fmt.Errorf("picking a port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	cmd := exec.Command(bin, "-addr", addr, "-workers", "2", "-log-level", "error")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	// The server must not outlive the harness, even if the harness is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	s := &server{cmd: cmd, url: "http://" + addr, exited: make(chan struct{})}
	s.waiter.Add(1)
	go func() {
		defer s.waiter.Done()
		s.err = cmd.Wait()
		close(s.exited)
	}()
	if err := s.waitHealthy(ctx, hc); err != nil {
		s.kill()
		return nil, err
	}
	return s, nil
}

func (s *server) waitHealthy(ctx context.Context, hc *http.Client) error {
	deadline := time.Now().Add(startTimeout)
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.url+"/healthz", nil)
		if err != nil {
			return err
		}
		if resp, err := hc.Do(req); err == nil {
			_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxResponse))
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ftserved not healthy after %v", startTimeout)
		}
		select {
		case <-s.exited:
			return fmt.Errorf("ftserved exited during start-up: %v", s.err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// peakRSSMB reads VmHWM, the server's peak resident set, in MiB.
func (s *server) peakRSSMB() (float64, error) {
	f, err := os.Open(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(io.LimitReader(f, 1<<20))
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("parsing VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM line in /proc status")
}

// stop sends SIGTERM and requires a clean exit 0 within stopTimeout.
func (s *server) stop(ctx context.Context) error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return fmt.Errorf("signalling ftserved: %w", err)
	}
	select {
	case <-s.exited:
	case <-ctx.Done():
		s.kill()
		return ctx.Err()
	case <-time.After(stopTimeout):
		s.kill()
		return fmt.Errorf("ftserved did not exit within %v of SIGTERM", stopTimeout)
	}
	if s.err != nil {
		return fmt.Errorf("ftserved exit after SIGTERM: %w", s.err)
	}
	return nil
}

// kill ends the process on an error path and waits for it.
func (s *server) kill() {
	_ = s.cmd.Process.Kill() // an already-exited process is the only error
	s.waiter.Wait()
}
