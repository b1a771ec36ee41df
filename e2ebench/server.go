package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// buildServers compiles the servers of the checkout under test into
// dir. It runs before any timing starts.
func buildServers(dir string) error {
	cmd := exec.Command("go", "build", "-o", dir+string(filepath.Separator), "./cmd/kvserver", "./cmd/xmppserver")
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return fmt.Errorf("build servers: %w", err)
	}
	return nil
}

// server is one running kvserver or xmppserver process.
type server struct {
	cmd     *exec.Cmd
	exec    time.Time // when the process was started
	addr    string    // bound service address
	metrics string    // telemetry base URL ("" without -metrics)
	exited  chan struct{}
}

var (
	listenRE  = regexp.MustCompile(`listening on (\S+)`)
	metricsRE = regexp.MustCompile(`metrics on (http://[^/\s]+)/metrics`)
)

// startServer execs bin with args, copying its output to logPath, and
// returns once it has announced its listen address (and its telemetry
// address when run with -metrics). The server dies with the benchmark.
func startServer(bin string, args []string, logPath string) (*server, error) {
	withMetrics := false
	for _, a := range args {
		withMetrics = withMetrics || a == "-metrics"
	}
	logf, err := os.OpenFile(logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, args...)
	cmd.Stderr = logf
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	s := &server{cmd: cmd, exited: make(chan struct{}), exec: time.Now()}
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("start %s: %w", filepath.Base(bin), err)
	}
	ready := make(chan error, 1)
	go func() {
		defer logf.Close()
		sc := bufio.NewScanner(out)
		announced := false
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if announced {
				continue
			}
			if m := listenRE.FindStringSubmatch(line); m != nil {
				s.addr = m[1]
			}
			if m := metricsRE.FindStringSubmatch(line); m != nil {
				s.metrics = m[1]
			}
			if s.addr != "" && (!withMetrics || s.metrics != "") {
				announced = true
				ready <- nil
			}
		}
		_, _ = io.Copy(io.Discard, out)
		if !announced {
			ready <- fmt.Errorf("%s exited before announcing its address (see %s)", filepath.Base(bin), logPath)
		}
	}()
	go func() {
		_ = cmd.Wait()
		close(s.exited)
	}()
	select {
	case err := <-ready:
		if err != nil {
			s.stop()
			return nil, err
		}
		return s, nil
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("%s did not announce its address within 60s", filepath.Base(bin))
	}
}

// stop terminates the server gracefully (so a persistent store flushes
// and closes) and waits until the process has exited.
func (s *server) stop() {
	_ = s.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-s.exited:
	case <-time.After(20 * time.Second):
		_ = s.cmd.Process.Kill()
		<-s.exited
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// clockTicks is USER_HZ, the unit of /proc/<pid>/stat CPU times; it is
// 100 on every Linux ABI Go supports.
const clockTicks = 100

// cpuTime returns the server's user+system CPU time from /proc.
func (s *server) cpuTime() (time.Duration, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", s.pid()))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := string(raw[strings.LastIndexByte(string(raw), ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, errors.New("short /proc stat line")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("parse /proc stat: %q", raw)
	}
	return time.Duration(ut+st) * time.Second / clockTicks, nil
}

// peakRSS returns the server's resident-set high-water mark (VmHWM).
func (s *server) peakRSS() (float64, error) {
	raw, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", s.pid()))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// fetch GETs path from the server's telemetry endpoint.
func (s *server) fetch(path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, s.metrics+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", path, resp.Status)
	}
	return io.ReadAll(resp.Body)
}
