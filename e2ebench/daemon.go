package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
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

// clkTck is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat (100 on every Linux ABI Go supports).
const clkTck = 100

// daemon is one trngd child process owned by the benchmark.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://addr
	done chan struct{}

	mu     sync.Mutex
	config map[string]map[string]any // startup log records by message
}

// children tracks every live child so that the watchdog and the signal
// handler can kill them on any exit path.
var children struct {
	sync.Mutex
	set map[*daemon]bool
}

// preflight refuses to start when another trngd is running or the
// listen address is taken: either would share the two CPUs with the
// daemon under test and corrupt every rate the run reports.
func preflight(addr string) error {
	if pids := otherTrngd(); len(pids) > 0 {
		return fmt.Errorf("another trngd is running (pid %s); stop it first", strings.Join(pids, ", "))
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("listen address %s is taken: %w", addr, err)
	}
	return ln.Close()
}

// otherTrngd lists the pids of running processes named trngd.
func otherTrngd() []string {
	comms, _ := filepath.Glob("/proc/[0-9]*/comm")
	var pids []string
	for _, c := range comms {
		b, err := os.ReadFile(c)
		if err != nil {
			continue // the process exited while we looked
		}
		if strings.TrimSpace(string(b)) == "trngd" {
			pids = append(pids, filepath.Base(filepath.Dir(c)))
		}
	}
	return pids
}

// startDaemon execs trngd with args and returns once the process runs
// (not once it serves: see waitReady).
func startDaemon(bin, addr string, args []string) (*daemon, error) {
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	// The child dies with the benchmark even on a hard kill.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, done: make(chan struct{}), config: map[string]map[string]any{}}
	children.Lock()
	defer children.Unlock()
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start trngd: %w", err)
	}
	if children.set == nil {
		children.set = map[*daemon]bool{}
	}
	children.set[d] = true
	go d.readLog(stderr)
	return d, nil
}

// readLog drains the child's JSON log, keeping the startup records
// that describe its configuration.
func (d *daemon) readLog(r io.Reader) {
	defer close(d.done)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	for sc.Scan() {
		var rec map[string]any
		if json.Unmarshal(sc.Bytes(), &rec) != nil {
			continue
		}
		msg, _ := rec["msg"].(string)
		switch msg {
		case "calibrating shards", "drbg mode":
			d.mu.Lock()
			d.config[msg] = rec
			d.mu.Unlock()
		}
	}
	_, _ = io.Copy(io.Discard, r)
}

// reported returns the startup log record with the given message.
func (d *daemon) reported(msg string) map[string]any {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.config[msg]
}

// kill stops the child and waits until it has exited. Safe to call
// more than once.
func (d *daemon) kill() {
	children.Lock()
	live := children.set[d]
	delete(children.set, d)
	children.Unlock()
	if !live {
		return
	}
	_ = d.cmd.Process.Kill() // already exited is fine: Wait reaps it
	_ = d.cmd.Wait()
	<-d.done
}

// killAll stops every live child (watchdog and signal paths).
func killAll() {
	children.Lock()
	var ds []*daemon
	for d := range children.set {
		ds = append(ds, d)
	}
	children.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// waitReady polls GET /random?bytes=32 until the daemon answers a full
// 200. It returns the first good body, which consumed stream bytes.
func (d *daemon) waitReady(ctx context.Context, c *http.Client) ([]byte, error) {
	for {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("trngd not ready: %w", err)
		}
		select {
		case <-d.done:
			return nil, errors.New("trngd exited during startup")
		default:
		}
		body, code, err := get(ctx, c, d.base+"/random?bytes=32")
		if err == nil && code == http.StatusOK && len(body) == 32 {
			return body, nil
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// get performs one GET and returns the body and status.
func get(ctx context.Context, c *http.Client, url string) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return body, resp.StatusCode, err
}

// scrape fetches and parses /metrics.
func (d *daemon) scrape(ctx context.Context, c *http.Client) (promSnapshot, error) {
	body, code, err := get(ctx, c, d.base+"/metrics")
	if err != nil {
		return promSnapshot{}, fmt.Errorf("scrape /metrics: %w", err)
	}
	if code != http.StatusOK {
		return promSnapshot{}, fmt.Errorf("scrape /metrics: status %d", code)
	}
	return parseProm(string(body))
}

// healthz is the part of the /healthz payload the benchmark checks.
type healthz struct {
	Status  string `json:"status"`
	Mode    string `json:"mode"`
	Healthy int    `json:"healthy"`
	Shards  []struct {
		Index       int    `json:"index"`
		State       string `json:"state"`
		Quarantines uint64 `json:"quarantines"`
	} `json:"shards"`
	DRBG *struct {
		Kind           string `json:"kind"`
		Conditioner    string `json:"conditioner"`
		ReseedInterval uint64 `json:"reseed_interval"`
		BlockBytes     int    `json:"block_bytes"`
	} `json:"drbg"`
}

// health fetches /healthz and fails unless every shard is healthy and
// none was ever quarantined.
func (d *daemon) health(ctx context.Context, c *http.Client) (healthz, error) {
	var h healthz
	body, code, err := get(ctx, c, d.base+"/healthz")
	if err != nil {
		return h, fmt.Errorf("/healthz: %w", err)
	}
	if err := json.Unmarshal(body, &h); err != nil {
		return h, fmt.Errorf("/healthz: %w", err)
	}
	if code != http.StatusOK || h.Status != "ok" || h.Healthy != len(h.Shards) {
		return h, fmt.Errorf("/healthz: status %d %q, %d/%d shards healthy", code, h.Status, h.Healthy, len(h.Shards))
	}
	for _, s := range h.Shards {
		if s.Quarantines != 0 {
			return h, fmt.Errorf("/healthz: shard %d was quarantined %d times", s.Index, s.Quarantines)
		}
	}
	return h, nil
}

// cpuSeconds returns the child's utime+stime.
func (d *daemon) cpuSeconds() (float64, error) {
	return procCPU(d.cmd.Process.Pid)
}

// procCPU reads utime+stime of a process from /proc/<pid>/stat.
func procCPU(pid int) (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields restart after its ')'.
	s := string(b)
	i := strings.LastIndexByte(s, ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(s[i+1:])
	// f[0] is field 3 (state); utime and stime are fields 14 and 15.
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseUint(f[11], 10, 64)
	st, err2 := strconv.ParseUint(f[12], 10, 64)
	if err := errors.Join(err1, err2); err != nil {
		return 0, err
	}
	return float64(ut+st) / clkTck, nil
}

// peakRSSMiB reads the child's VmHWM.
func (d *daemon) peakRSSMiB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "kB" {
				kb, err := strconv.ParseFloat(f[0], 64)
				return kb / 1024, err
			}
		}
	}
	return 0, errors.New("VmHWM not found")
}
