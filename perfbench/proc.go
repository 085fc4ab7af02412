package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// clockTick is the kernel's USER_HZ: /proc/<pid>/stat CPU times count
// ticks of this length on every Linux architecture Go supports.
const clockTick = 10 * time.Millisecond

// childEnv is the environment of every process the benchmark starts:
// the load must fit two cores.
func childEnv() []string { return append(os.Environ(), "GOMAXPROCS=2") }

// procCounters is one reading of a process's kernel-side counters.
type procCounters struct {
	cpu          time.Duration // user + system
	syscr, syscw uint64        // read and write system calls
	hwmKB        uint64        // peak resident set (VmHWM)
}

// readProc reads /proc/<pid>/{stat,io,status}.
func readProc(pid int) (procCounters, error) {
	var c procCounters
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return c, err
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15.
	i := bytes.LastIndexByte(stat, ')')
	f := strings.Fields(string(stat[i+1:]))
	if len(f) < 13 {
		return c, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return c, fmt.Errorf("parse /proc/%d/stat: %w", pid, err)
	}
	c.cpu = time.Duration(ut+st) * clockTick

	kv := func(name string) (map[string]uint64, error) {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/%s", pid, name))
		if err != nil {
			return nil, err
		}
		m := map[string]uint64{}
		for _, line := range strings.Split(string(b), "\n") {
			k, v, ok := strings.Cut(line, ":")
			if !ok {
				continue
			}
			fs := strings.Fields(v)
			if len(fs) == 0 {
				continue
			}
			if n, err := strconv.ParseUint(fs[0], 10, 64); err == nil {
				m[k] = n
			}
		}
		return m, nil
	}
	io, err := kv("io")
	if err != nil {
		return c, err
	}
	st2, err := kv("status")
	if err != nil {
		return c, err
	}
	c.syscr, c.syscw, c.hwmKB = io["syscr"], io["syscw"], st2["VmHWM"]
	return c, nil
}

// server is a running cmd/phased process.
type server struct {
	cmd     *exec.Cmd
	out     *bufio.Reader
	addr    string // wire protocol
	metrics string // HTTP telemetry
}

// startServer execs phased with two workers and waits, by reading its
// stdout, until both listeners are bound.
func startServer(bin string) (*server, error) {
	cmd := exec.Command(bin+"/phased",
		"-addr", "127.0.0.1:0",
		"-metrics-addr", "127.0.0.1:0",
		"-workers", "2",
		"-max-sessions-per-ip", "1024")
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start phased: %w", err)
	}
	s := &server{cmd: cmd, out: bufio.NewReader(pipe)}
	for s.addr == "" || s.metrics == "" {
		line, err := s.out.ReadString('\n')
		if err != nil {
			s.kill()
			return nil, fmt.Errorf("phased exited before listening: %w", err)
		}
		if a, ok := strings.CutPrefix(line, "phased: listening on "); ok {
			s.addr = strings.TrimSpace(a)
		}
		if a, ok := strings.CutPrefix(line, "phased: metrics on http://"); ok {
			s.metrics, _, _ = strings.Cut(a, "/")
		}
	}
	return s, nil
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// stop sends SIGTERM and waits for the graceful drain; phased exits 0
// when it drained cleanly. phased prints its listening lines before it
// installs its signal handler, so a server stopped right after start
// may instead die of the signal; unless mustDrain, that is accepted.
func (s *server) stop(mustDrain bool) error {
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		s.kill()
		return err
	}
	rest, _ := io.ReadAll(s.out)
	err := s.cmd.Wait()
	var ee *exec.ExitError
	if err != nil && !mustDrain && errors.As(err, &ee) {
		if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
			return nil
		}
	}
	if err != nil {
		return fmt.Errorf("phased: %w (%s)", err, bytes.TrimSpace(rest))
	}
	return nil
}

// kill ends the process without a drain, for error paths.
func (s *server) kill() {
	_ = s.cmd.Process.Kill()
	_, _ = io.Copy(io.Discard, s.out)
	_ = s.cmd.Wait()
}

// promHist is one Prometheus histogram: cumulative bucket counts by
// upper bound, plus sum and count.
type promHist struct {
	bounds []float64 // ascending; the last is +Inf
	cum    []float64
	sum    float64
	count  float64
}

// quantile interpolates the qth quantile linearly inside its bucket,
// the way Prometheus' histogram_quantile does.
func (h promHist) quantile(q float64) float64 {
	if h.count == 0 || len(h.bounds) == 0 {
		return 0
	}
	rank := q * h.count
	lo, prev := 0.0, 0.0
	for i, b := range h.bounds {
		if h.cum[i] >= rank {
			if math.IsInf(b, 1) {
				return lo
			}
			in := h.cum[i] - prev
			if in == 0 {
				return b
			}
			return lo + (b-lo)*(rank-prev)/in
		}
		lo, prev = b, h.cum[i]
	}
	return lo
}

// scrape is a parsed /metrics page.
type scrape struct {
	values map[string]float64
	hists  map[string]*promHist
}

// scrapeMetrics fetches and parses the server's Prometheus text.
func (s *server) scrapeMetrics() (scrape, error) {
	resp, err := http.Get("http://" + s.metrics + "/metrics")
	if err != nil {
		return scrape{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return scrape{}, fmt.Errorf("GET /metrics: %s", resp.Status)
	}
	return parseProm(resp.Body)
}

// parseProm reads Prometheus text exposition: plain samples into
// values, _bucket/_sum/_count series into hists.
func parseProm(r io.Reader) (scrape, error) {
	sc := scrape{values: map[string]float64{}, hists: map[string]*promHist{}}
	hist := func(name string) *promHist {
		h := sc.hists[name]
		if h == nil {
			h = &promHist{}
			sc.hists[name] = h
		}
		return h
	}
	in := bufio.NewScanner(r)
	for in.Scan() {
		line := in.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		key, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return sc, fmt.Errorf("metrics line %q: %w", line, err)
		}
		name, labels, _ := strings.Cut(key, "{")
		switch {
		case strings.HasSuffix(name, "_bucket"):
			le := strings.TrimSuffix(strings.TrimPrefix(labels, `le="`), `"}`)
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return sc, fmt.Errorf("metrics bucket %q: %w", line, err)
			}
			h := hist(strings.TrimSuffix(name, "_bucket"))
			h.bounds = append(h.bounds, b)
			h.cum = append(h.cum, v)
		case strings.HasSuffix(name, "_sum") && sc.hists[strings.TrimSuffix(name, "_sum")] != nil:
			hist(strings.TrimSuffix(name, "_sum")).sum = v
		case strings.HasSuffix(name, "_count") && sc.hists[strings.TrimSuffix(name, "_count")] != nil:
			hist(strings.TrimSuffix(name, "_count")).count = v
		default:
			sc.values[name] = v
		}
	}
	return sc, in.Err()
}

// childRun is one batch job run in a fresh process.
type childRun struct {
	setup time.Duration // exec until the job's first output line
	run   time.Duration // first output line until the process exited
	cpu   time.Duration // user + system of the process
	rssMB float64       // peak resident set
	out   []byte        // everything after the first line
	first string        // the first line
}

// runChild execs a job process. The first line it prints marks the
// moment the job begins; the rest of its output is the job's artifact.
func runChild(name string, args ...string) (childRun, error) {
	var r childRun
	cmd := exec.Command(name, args...)
	cmd.Env = childEnv()
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return r, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return r, fmt.Errorf("start %s: %w", name, err)
	}
	br := bufio.NewReader(pipe)
	first, err := br.ReadString('\n')
	t1 := time.Now()
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return r, fmt.Errorf("%s printed no first line: %w", name, err)
	}
	rest, rerr := io.ReadAll(br)
	werr := cmd.Wait()
	t2 := time.Now()
	if err := errors.Join(rerr, werr); err != nil {
		return r, fmt.Errorf("%s: %w", name, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return r, errors.New("no rusage for child")
	}
	r.setup, r.run = t1.Sub(t0), t2.Sub(t1)
	r.cpu = time.Duration(syscall.TimevalToNsec(ru.Utime) + syscall.TimevalToNsec(ru.Stime))
	r.rssMB = float64(ru.Maxrss) / 1024 // Maxrss is in KiB on Linux
	r.first, r.out = first, rest
	return r, nil
}
