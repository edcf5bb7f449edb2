package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// server is one seprivd process under test.
type server struct {
	cmd    *exec.Cmd
	base   string // http://host:port
	client *http.Client
	exited chan struct{} // closed once the process has been reaped
	done   bool
}

// clockTicks is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat; it is 100 on every Linux architecture Go supports.
const clockTicks = 100

// startServer launches seprivd on a free loopback port with an empty
// artifact store at storeDir and maxWorkers worker slots, and waits until
// it answers /v1/healthz.
func startServer(ctx context.Context, bin, storeDir string, maxWorkers int, logw io.Writer) (*server, error) {
	if err := os.MkdirAll(storeDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin,
		"-addr", "127.0.0.1:0",
		"-artifact-dir", storeDir,
		"-max-workers", strconv.Itoa(maxWorkers))
	cmd.Stderr = logw
	// The server must not outlive the benchmark, even when the benchmark
	// itself is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting seprivd: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		// Drain stdout for the process's lifetime so it never blocks on a
		// full pipe; the first line names the listen address.
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "seprivd: listening on "); ok {
				select {
				case addr <- a:
				default:
				}
			}
		}
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case s.base = <-addr:
	case <-s.exited:
		return nil, fmt.Errorf("seprivd exited before listening")
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, fmt.Errorf("seprivd did not report a listen address within 30s")
	case <-ctx.Done():
		s.stop()
		return nil, ctx.Err()
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxIdleConns:        64,
		MaxIdleConnsPerHost: 64,
		DisableCompression:  true,
	}}
	var health struct{ Status string }
	if _, err := s.getJSON(ctx, "/v1/healthz", &health); err != nil || health.Status != "ok" {
		s.stop()
		return nil, fmt.Errorf("seprivd health check: %v (status %q)", err, health.Status)
	}
	return s, nil
}

// stop terminates the server gracefully, kills it if it does not exit in
// time, and waits until the process has been reaped. Safe to call twice.
func (s *server) stop() {
	if s.done {
		return
	}
	s.done = true
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

// cpuSeconds returns the user+system CPU time the server has consumed.
func (s *server) cpuSeconds() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	i := strings.LastIndexByte(string(raw), ')')
	f := strings.Fields(string(raw[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parsing /proc stat times: %v %v", err1, err2)
	}
	return (ut + st) / clockTicks, nil
}

// peakRSSMB returns the server's peak resident set size (VmHWM) in MiB.
func (s *server) peakRSSMB() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
