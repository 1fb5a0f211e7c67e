package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/obs"
)

// runner holds one invocation's settings and every daemon it has
// started, so that any exit path can stop them.
type runner struct {
	o     options
	env   env
	log   io.Writer
	spans *obs.Tracer // the benchmark's own spans; nil outside traced runs

	mu    sync.Mutex
	procs map[*proc]bool
}

func newRunner(o options, log io.Writer) *runner {
	return &runner{o: o, env: currentEnv(), log: log, procs: map[*proc]bool{}}
}

// runWorkload runs one workload under the per-workload time limit and
// stamps the result with the run's settings.
func (r *runner) runWorkload(w workload) (*result, error) {
	start := time.Now()
	limit := time.AfterFunc(perWorkloadLimit, func() { r.abort(w.name + ": over the time limit") })
	defer limit.Stop()
	r.spans = nil
	if r.o.trace {
		r.spans = obs.NewTracer(1 << 15)
		r.spans.SetProcess("bench")
	}
	res, err := w.run(r)
	if err != nil {
		r.killAll()
		return nil, err
	}
	res.Workload, res.Seed, res.Seconds, res.Trace = w.name, r.o.seed, r.o.window.Seconds(), r.o.trace
	res.Start, res.Env, res.Correct = start, r.env, true
	if r.o.trace {
		if err := r.writeSpans(w.name, "bench", r.spans.WriteChromeTrace); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// writeSpans writes one tracecat-compatible span file for a workload.
func (r *runner) writeSpans(workload, source string, write func(io.Writer) error) error {
	if err := os.MkdirAll(r.o.spans, 0o755); err != nil {
		return fmt.Errorf("span directory: %w", err)
	}
	path := filepath.Join(r.o.spans, fmt.Sprintf("%s-seed%d-%s.json", workload, r.o.seed, source))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("span file %s: %w", path, err)
	}
	return f.Close()
}

// abort stops every daemon and exits; used by the time limit and on
// signals.
func (r *runner) abort(why string) {
	fmt.Fprintln(r.log, "bench: aborting:", why)
	r.killAll()
	os.Exit(1)
}

func (r *runner) killAll() {
	r.mu.Lock()
	ps := make([]*proc, 0, len(r.procs))
	for p := range r.procs {
		ps = append(ps, p)
	}
	r.procs = map[*proc]bool{}
	r.mu.Unlock()
	for _, p := range ps {
		p.cmd.Process.Kill()
		<-p.exited
	}
}

// proc is one daemon the benchmark started.
type proc struct {
	name   string // binary name
	cmd    *exec.Cmd
	out    *logBuf
	addr   string // wire address it serves on
	obsURL string // base URL of its /metrics, /debug/vars and /trace

	exited  chan struct{} // closed once Wait returned
	waitErr error
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

// logBuf collects a daemon's output and signals each write.
type logBuf struct {
	mu     sync.Mutex
	buf    bytes.Buffer
	notify chan struct{} // capacity 1: "there is new output"
}

func (l *logBuf) Write(b []byte) (int, error) {
	l.mu.Lock()
	n, err := l.buf.Write(b)
	l.mu.Unlock()
	select {
	case l.notify <- struct{}{}:
	default:
	}
	return n, err
}

func (l *logBuf) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

var (
	servingRe = regexp.MustCompile(`(?m)^montsysd: serving on (\S+) \(`)
	lbRe      = regexp.MustCompile(`(?m)^montsyslb: balancing \S+ on (\S+) \(`)
	obsRe     = regexp.MustCompile(`(?m)observability on (http://\S+)/ `)
)

// start execs a daemon and waits until it reports its wire and
// observability addresses.
func (r *runner) start(name string, args ...string) (*proc, error) {
	cmd := exec.Command(filepath.Join(r.o.bin, name), args...)
	out := &logBuf{notify: make(chan struct{}, 1)}
	cmd.Stdout, cmd.Stderr = out, out
	// A safety net for a benchmark killed outright: the kernel then
	// kills the daemon too. Normal runs stop daemons with SIGTERM.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, out: out, exited: make(chan struct{})}
	r.mu.Lock()
	r.procs[p] = true
	r.mu.Unlock()
	go func() {
		p.waitErr = cmd.Wait()
		close(p.exited)
	}()
	re := servingRe
	if name == "montsyslb" {
		re = lbRe
	}
	deadline := time.NewTimer(10 * time.Second)
	defer deadline.Stop()
	for {
		log := out.String()
		addr, obs := re.FindStringSubmatch(log), obsRe.FindStringSubmatch(log)
		if addr != nil && obs != nil {
			p.addr, p.obsURL = addr[1], obs[1]
			break
		}
		select {
		case <-out.notify:
		case <-p.exited:
			r.forget(p)
			return nil, fmt.Errorf("%s exited before serving (%v):\n%s", name, p.waitErr, out)
		case <-deadline.C:
			r.kill(p)
			return nil, fmt.Errorf("%s did not report its addresses within 10s:\n%s", name, out)
		}
	}
	return p, nil
}

func (r *runner) forget(p *proc) {
	r.mu.Lock()
	delete(r.procs, p)
	r.mu.Unlock()
}

func (r *runner) kill(p *proc) {
	p.cmd.Process.Kill()
	<-p.exited
	r.forget(p)
}

// stop sends SIGTERM and requires a clean exit: status 0 and "drained
// cleanly" in the daemon's log.
func (r *runner) stop(p *proc) error {
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil && !errors.Is(err, os.ErrProcessDone) {
		r.kill(p)
		return fmt.Errorf("signal %s: %w", p.name, err)
	}
	select {
	case <-p.exited:
	case <-time.After(15 * time.Second):
		r.kill(p)
		return fmt.Errorf("%s did not exit within 15s of SIGTERM", p.name)
	}
	r.forget(p)
	if p.waitErr != nil {
		return fmt.Errorf("%s exited with %v:\n%s", p.name, p.waitErr, p.out)
	}
	if !strings.Contains(p.out.String(), "drained cleanly") {
		return fmt.Errorf("%s exited without draining cleanly:\n%s", p.name, p.out)
	}
	return nil
}

// checkListener confirms that pid is alive and holds the listening
// socket for addr's port, so load can never go to some other process
// that happens to answer there.
func checkListener(pid int, addr string) error {
	i := strings.LastIndexByte(addr, ':')
	port, err := strconv.Atoi(addr[i+1:])
	if i < 0 || err != nil {
		return fmt.Errorf("bad listen address %q", addr)
	}
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return fmt.Errorf("pid %d is gone: %w", pid, err)
	}
	if st, _, err := parseProcStat(string(stat)); err != nil || st == "Z" {
		return fmt.Errorf("pid %d is not running (state %q, %v)", pid, st, err)
	}
	inodes := map[string]bool{}
	for _, table := range []string{"/proc/net/tcp", "/proc/net/tcp6"} {
		b, err := os.ReadFile(table)
		if err != nil {
			continue
		}
		for _, ino := range listenInodes(string(b), port) {
			inodes[ino] = true
		}
	}
	if len(inodes) == 0 {
		return fmt.Errorf("nothing listens on port %d", port)
	}
	fdDir := fmt.Sprintf("/proc/%d/fd", pid)
	fds, err := os.ReadDir(fdDir)
	if err != nil {
		return fmt.Errorf("list fds of pid %d: %w", pid, err)
	}
	for _, fd := range fds {
		link, err := os.Readlink(filepath.Join(fdDir, fd.Name()))
		if err != nil {
			continue
		}
		if ino, ok := strings.CutPrefix(link, "socket:["); ok && inodes[strings.TrimSuffix(ino, "]")] {
			return nil
		}
	}
	return fmt.Errorf("port %d is held by a process other than pid %d", port, pid)
}

// listenInodes returns the socket inodes of the LISTEN entries for port
// in a /proc/net/tcp{,6} table.
func listenInodes(table string, port int) []string {
	var out []string
	sc := bufio.NewScanner(strings.NewReader(table))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) < 10 || f[3] != "0A" { // 0A: TCP_LISTEN
			continue
		}
		i := strings.LastIndexByte(f[1], ':')
		p, err := strconv.ParseUint(f[1][i+1:], 16, 32)
		if i < 0 || err != nil || int(p) != port {
			continue
		}
		out = append(out, f[9])
	}
	return out
}

// fleetSpec is the daemon layout of a served workload. Every montsysd
// runs the cios kit: the production fast path, the same on every run.
type fleetSpec struct {
	backends int
	workers  int
	cache    int  // per-modulus context LRU size; 0 keeps the daemon default
	lb       bool // front the backends with a montsyslb (shipped defaults)
}

// fleet is a running set of daemons.
type fleet struct {
	backends []*proc
	lb       *proc
}

// front is the address the load goes to.
func (f *fleet) front() string {
	if f.lb != nil {
		return f.lb.addr
	}
	return f.backends[0].addr
}

func (f *fleet) procs() []*proc {
	if f.lb != nil {
		return append([]*proc{f.lb}, f.backends...)
	}
	return f.backends
}

// check confirms that every daemon of the fleet is the process listening
// on its address. It runs after set-up is timed and before any measured
// load: reading /proc takes about a millisecond.
func (f *fleet) check() error {
	for _, p := range f.procs() {
		if err := checkListener(p.pid(), p.addr); err != nil {
			return fmt.Errorf("%s: %w", p.name, err)
		}
	}
	return nil
}

// launch starts a fleet. On error the daemons already started stay
// registered with the runner, which kills them when the workload fails.
func (r *runner) launch(s fleetSpec) (*fleet, error) {
	f := &fleet{}
	var addrs []string
	for i := 0; i < s.backends; i++ {
		args := []string{"-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
			"-kit", "cios", "-workers", strconv.Itoa(s.workers)}
		if s.cache > 0 {
			args = append(args, "-cache", strconv.Itoa(s.cache))
		}
		p, err := r.start("montsysd", args...)
		if err != nil {
			return nil, err
		}
		f.backends = append(f.backends, p)
		addrs = append(addrs, p.addr)
	}
	if s.lb {
		p, err := r.start("montsyslb", "-listen", "127.0.0.1:0", "-metrics", "127.0.0.1:0",
			"-backends", strings.Join(addrs, ","))
		if err != nil {
			return nil, err
		}
		f.lb = p
	}
	return f, nil
}

// stopFleet stops the balancer first, then the backends, and reports
// every daemon that did not drain cleanly.
func (r *runner) stopFleet(f *fleet) error {
	var errs []error
	for _, p := range f.procs() {
		if err := r.stop(p); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}
