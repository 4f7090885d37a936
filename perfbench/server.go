package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
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

// server is one running cfserve process driven over loopback.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	exited chan struct{} // closed once the process has been reaped
	logEnd chan struct{} // closed once the log pipe is drained
}

// startServer launches the cfserve binary on a kernel-chosen loopback port
// and waits for the address it logs. conns bounds the client's
// connections to the server.
func startServer(bin string, conns int) (*server, error) {
	cmd := exec.Command(bin, "-addr", "127.0.0.1:0")
	// The server must not outlive the benchmark, even if it crashes.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start cfserve: %w", err)
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), logEnd: make(chan struct{})}
	addrCh := make(chan string, 1)
	go func() {
		// The access log is read and dropped so the server never blocks
		// on a full pipe; the first "listening on" line carries the port.
		defer close(s.logEnd)
		sc := bufio.NewScanner(stderr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		sent := false
		for sc.Scan() {
			line := sc.Text()
			if i := strings.Index(line, "listening on "); !sent && i >= 0 {
				addrCh <- strings.Fields(line[i+len("listening on "):])[0]
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, stderr)
		if !sent {
			close(addrCh)
		}
	}()
	go func() {
		<-s.logEnd
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case addr, ok := <-addrCh:
		if !ok {
			s.stop()
			return nil, errors.New("cfserve exited before listening")
		}
		s.base = "http://" + addr
	case <-time.After(30 * time.Second):
		s.stop()
		return nil, errors.New("cfserve did not report its address within 30s")
	}
	s.client = &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DisableCompression:  true,
	}}
	return s, nil
}

// stop sends SIGTERM, waits for the drain, and kills after 15 s.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(15 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

// do sends one request and reads the whole body.
func (s *server) do(method, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequest(method, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// waitHealthy polls /healthz until it answers 200.
func (s *server) waitHealthy() error {
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, _, err := s.do("GET", "/healthz", nil)
		if err == nil && code == http.StatusOK {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("healthz: status %d, err %v", code, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// register posts each table spec to POST /tables.
func (s *server) register(tables []table) error {
	for _, t := range tables {
		code, body, err := s.do("POST", "/tables", t.specJSON())
		if err != nil {
			return fmt.Errorf("register %s: %w", t.name, err)
		}
		if code != http.StatusCreated {
			return fmt.Errorf("register %s: status %d: %s", t.name, code, body)
		}
	}
	return nil
}

// stats reads GET /stats as numeric counters.
func (s *server) stats() (map[string]float64, error) {
	code, body, err := s.do("GET", "/stats", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("stats: status %d, err %v", code, err)
	}
	var raw map[string]any
	if err := json.Unmarshal(body, &raw); err != nil {
		return nil, fmt.Errorf("stats: %w", err)
	}
	out := map[string]float64{}
	for k, v := range raw {
		if f, ok := v.(float64); ok {
			out[k] = f
		}
	}
	return out, nil
}

// metrics reads the unlabeled samples of GET /metrics.
func (s *server) metrics() (map[string]float64, error) {
	code, body, err := s.do("GET", "/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d, err %v", code, err)
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) != 2 || strings.HasPrefix(line, "#") || strings.Contains(f[0], "{") {
			continue
		}
		if v, err := strconv.ParseFloat(f[1], 64); err == nil {
			out[f[0]] = v
		}
	}
	return out, nil
}

// procCPU is the server's user+system CPU time from /proc/<pid>/stat.
func (s *server) procCPU() (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line, in clock ticks (USER_HZ = 100).
	rest := string(b[bytes.LastIndexByte(b, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat line")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat line")
	}
	return time.Duration(ut+st) * 10 * time.Millisecond, nil
}

// peakRSSMB is the server's VmHWM in MB.
func (s *server) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}
