package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// proc is one spawned binary with its combined output kept in memory.
type proc struct {
	name string
	cmd  *exec.Cmd
	mu   sync.Mutex
	out  bytes.Buffer
	done chan struct{}
}

func (p *proc) Write(b []byte) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.Write(b)
}

func (p *proc) output() string {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.out.String()
}

// startProc starts bin with args; env adds to the benchmark's environment.
func startProc(name, bin string, env []string, args ...string) (*proc, error) {
	p := &proc{name: name, done: make(chan struct{})}
	p.cmd = exec.Command(bin, args...)
	p.cmd.Env = append(os.Environ(), env...)
	p.cmd.Stdout, p.cmd.Stderr = p, p
	// The child dies with the benchmark even if the benchmark is killed.
	p.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", name, err)
	}
	go func() {
		p.cmd.Wait()
		close(p.done)
	}()
	return p, nil
}

func (p *proc) pid() int { return p.cmd.Process.Pid }

func (p *proc) exited() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// stop kills the process and waits until it has been reaped.
func (p *proc) stop() {
	if p.exited() {
		return
	}
	p.cmd.Process.Signal(syscall.SIGKILL)
	<-p.done
}

// freePort reserves an ephemeral loopback port and releases it for a
// child to bind. TCP and UDP port spaces are separate, so the caller says
// which it needs.
func freePort(network string) (int, error) {
	if network == "udp" {
		c, err := net.ListenPacket("udp4", "127.0.0.1:0")
		if err != nil {
			return 0, err
		}
		defer c.Close()
		return c.LocalAddr().(*net.UDPAddr).Port, nil
	}
	ln, err := net.Listen("tcp4", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer ln.Close()
	return ln.Addr().(*net.TCPAddr).Port, nil
}

// cluster is a running real-path deployment: a redplane-ctl daemon and
// its store processes, linked into one chain.
type cluster struct {
	ctl      *proc
	stores   []*proc
	httpBase string
	head     *net.UDPAddr
	http     *http.Client
}

// chainStatus is the part of redplane-ctl's /status the benchmark reads.
type chainStatus struct {
	Chains []struct {
		View    uint64   `json:"view"`
		Members []string `json:"members"`
		Status  []struct {
			Name  string `json:"name"`
			Data  string `json:"data"`
			Alive bool   `json:"alive"`
		} `json:"status"`
	} `json:"chains"`
}

// launch starts a daemon and w's stores (WAL-backed under dir when
// durable) and returns once the daemon reports them all linked into one
// chain. link is the time from the first process start to that point.
func launch(o *options, w realWorkload, dir string) (c *cluster, link time.Duration, err error) {
	c = &cluster{http: &http.Client{Timeout: 2 * time.Second}}
	defer func() {
		if err != nil {
			c.stop()
		}
	}()
	ctlPort, err := freePort("tcp")
	if err != nil {
		return c, 0, err
	}
	httpPort, err := freePort("tcp")
	if err != nil {
		return c, 0, err
	}
	n := w.stores
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("s%d", i)
	}
	ctlAddr := fmt.Sprintf("127.0.0.1:%d", ctlPort)
	c.httpBase = fmt.Sprintf("http://127.0.0.1:%d", httpPort)
	start := time.Now()
	c.ctl, err = startProc("redplane-ctl", filepath.Join(o.bin, "redplane-ctl"), nil,
		"-listen", ctlAddr, "-http", fmt.Sprintf("127.0.0.1:%d", httpPort),
		"-chains", strings.Join(names, ","), "-probe-interval", ctlProbe.String())
	if err != nil {
		return c, 0, err
	}
	// Stores register by dialing the daemon; wait until it accepts.
	if err := waitFor(5*time.Second, func() bool {
		conn, err := net.DialTimeout("tcp", ctlAddr, 100*time.Millisecond)
		if err == nil {
			conn.Close()
		}
		return err == nil
	}); err != nil {
		return c, 0, fmt.Errorf("redplane-ctl never listened: %v\n%s", err, c.ctl.output())
	}
	var storeEnv []string
	if procs := w.storeProcs(); procs > 0 {
		storeEnv = []string{fmt.Sprintf("GOMAXPROCS=%d", procs)}
	}
	// A child inherits the CPUs of the thread that starts it.
	if cpus := w.storeCPUs(); cpus != nil {
		if err := pinSelf(cpus); err != nil {
			return c, 0, err
		}
		defer pinSelf(allCPUs())
	}
	for _, name := range names {
		port, err := freePort("udp")
		if err != nil {
			return c, 0, err
		}
		args := []string{"-listen", fmt.Sprintf("127.0.0.1:%d", port),
			"-ctl", ctlAddr, "-name", name, "-lease", "30s"}
		if procs := w.storeProcs(); procs > 0 {
			args = append(args, "-shards", strconv.Itoa(procs))
		}
		if w.durable {
			args = append(args, "-wal-dir", filepath.Join(dir, name))
		}
		p, err := startProc(name, filepath.Join(o.bin, "redplane-store"), storeEnv, args...)
		if err != nil {
			return c, 0, err
		}
		c.stores = append(c.stores, p)
	}
	var st chainStatus
	err = waitFor(10*time.Second, func() bool {
		for _, p := range c.stores {
			if p.exited() {
				return true
			}
		}
		if c.getJSON("/status", &st) != nil || len(st.Chains) != 1 {
			return false
		}
		ch := st.Chains[0]
		if len(ch.Members) != n {
			return false
		}
		for _, s := range ch.Status {
			if !s.Alive {
				return false
			}
		}
		return true
	})
	link = time.Since(start)
	for _, p := range c.stores {
		if p.exited() {
			return c, 0, fmt.Errorf("%s exited during set-up:\n%s", p.name, p.output())
		}
	}
	if err != nil {
		return c, 0, fmt.Errorf("chain never linked: %v\n%s", err, c.ctl.output())
	}
	head := st.Chains[0].Members[0]
	for _, s := range st.Chains[0].Status {
		if s.Name == head {
			c.head, err = net.ResolveUDPAddr("udp4", s.Data)
		}
	}
	if c.head == nil {
		return c, 0, fmt.Errorf("no data address for head %s (%v)", head, err)
	}
	return c, link, nil
}

// ctlProbe is the daemon's liveness-probe cadence; each probe also
// refreshes the per-store counters /metrics serves.
const ctlProbe = 25 * time.Millisecond

func (c *cluster) stop() {
	for _, p := range c.stores {
		p.stop()
	}
	if c.ctl != nil {
		c.ctl.stop()
	}
}

func (c *cluster) getJSON(path string, v any) error {
	res, err := c.http.Get(c.httpBase + path)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	return json.NewDecoder(res.Body).Decode(v)
}

// viewNum is the chain's current view number.
func (c *cluster) viewNum() (uint64, error) {
	var st chainStatus
	if err := c.getJSON("/status", &st); err != nil {
		return 0, err
	}
	if len(st.Chains) != 1 {
		return 0, fmt.Errorf("status lists %d chains", len(st.Chains))
	}
	return st.Chains[0].View, nil
}

// storeMetrics maps member name → metric name → value, from the
// daemon's /metrics exposition of each store's last-probed counters.
type storeMetrics map[string]map[string]float64

// sum adds a metric over every member whose name matches pred.
func (m storeMetrics) sum(pred func(name string) bool) float64 {
	var s float64
	for _, ms := range m {
		for n, v := range ms {
			if pred(n) {
				s += v
			}
		}
	}
	return s
}

func (c *cluster) metrics() (storeMetrics, error) {
	res, err := c.http.Get(c.httpBase + "/metrics")
	if err != nil {
		return nil, err
	}
	defer res.Body.Close()
	return parseMetrics(res.Body)
}

// parseMetrics reads Prometheus text lines of the form
// name{member="s0"} value; unlabelled series go under member "".
func parseMetrics(r io.Reader) (storeMetrics, error) {
	out := storeMetrics{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("malformed metrics line %q", line)
		}
		name, member := f[0], ""
		if i := strings.IndexByte(name, '{'); i >= 0 {
			member = strings.TrimSuffix(strings.TrimPrefix(name[i:], `{member="`), `"}`)
			name = name[:i]
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("malformed metrics value %q", line)
		}
		if out[member] == nil {
			out[member] = map[string]float64{}
		}
		out[member][name] = v
	}
	return out, sc.Err()
}

// digests returns each member's state digest.
func (c *cluster) digests() (map[string]string, error) {
	var d map[string]string
	err := c.getJSON("/digests", &d)
	return d, err
}

// waitFor polls cond every millisecond until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) error {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out after %v", timeout)
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// storesCPU sums user and system CPU (µs) over the store processes.
func (c *cluster) storesCPU() (user, sys float64) {
	for _, p := range c.stores {
		u, s, err := procCPU(p.pid())
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			continue
		}
		user += u
		sys += s
	}
	return user, sys
}

// storesPeakRSSMB sums the store processes' peak resident sets.
func (c *cluster) storesPeakRSSMB() float64 {
	var mb float64
	for _, p := range c.stores {
		mb += peakRSSMB(p.pid())
	}
	return mb
}

// procStatus reads one "Key: value kB" field of /proc/<pid>/status.
func procStatus(pid int, key string) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, key+":"); ok {
			f := strings.Fields(v)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("/proc/%d/status has no %s", pid, key)
}

// peakRSSMB is a process's peak resident set in MiB (0 if unreadable).
func peakRSSMB(pid int) float64 {
	kb, err := procStatus(pid, "VmHWM")
	if err != nil {
		return 0
	}
	return kb / 1024
}

// clockTicks is the kernel's USER_HZ, the unit of /proc/<pid>/stat CPU
// times; 100 on every Linux architecture Go supports.
const clockTicks = 100

// procCPU returns a process's user and system CPU time in µs.
func procCPU(pid int) (user, sys float64, err error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: malformed", pid)
	}
	f := strings.Fields(s[i+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("/proc/%d/stat: short", pid)
	}
	u, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("/proc/%d/stat: bad cpu fields", pid)
	}
	return u * 1e6 / clockTicks, st * 1e6 / clockTicks, nil
}
