package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
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

// buildDir holds everything a run writes outside bench/out: the adapiped
// binary and the per-run scratch (address files, cost-store snapshots). It is
// relative to the checkout root, which is where the harness is run from, and
// is the directory the driver hands to compiled benchmarks.
const buildDir = ".bench_build"

// shutdownGrace is adapiped's default -grace: a SIGTERM must produce exit 0
// within it.
const shutdownGrace = 10 * time.Second

// buildDaemon compiles cmd/adapiped once into buildDir and reports how long
// that took. The time is reported as build_s, outside every metric.
func buildDaemon() (bin string, seconds float64, err error) {
	if err := os.MkdirAll(filepath.Join(buildDir, "bin"), 0o755); err != nil {
		return "", 0, err
	}
	bin, err = filepath.Abs(filepath.Join(buildDir, "bin", "adapiped"))
	if err != nil {
		return "", 0, err
	}
	start := time.Now()
	out, err := exec.Command("go", "build", "-o", bin, "./cmd/adapiped").CombinedOutput()
	if err != nil {
		return "", 0, fmt.Errorf("building adapiped: %v\n%s", err, out)
	}
	return bin, time.Since(start).Seconds(), nil
}

// daemon is one running adapiped.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	out    bytes.Buffer
	exited chan struct{}
	// exitErr is cmd.Wait's result; read it only after exited is closed.
	exitErr error
}

// live tracks every daemon the harness has started, so that any exit path —
// a failed check, a signal, a panic — can kill what is still running.
var live struct {
	sync.Mutex
	m map[*daemon]bool
}

func killAllDaemons() {
	live.Lock()
	defer live.Unlock()
	for d := range live.m {
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
	live.m = nil
}

// startDaemon launches adapiped on an ephemeral loopback port with every flag
// but the listed ones at its default, and waits until /healthz answers.
func startDaemon(bin, scratch string, extra ...string) (*daemon, error) {
	addrFile := filepath.Join(scratch, "addr")
	_ = os.Remove(addrFile) // a stale address from the previous start must not be read
	args := append([]string{"-quiet", "-addr", "127.0.0.1:0", "-addr-file", addrFile}, extra...)
	d := &daemon{cmd: exec.Command(bin, args...), exited: make(chan struct{})}
	d.cmd.Stdout = &d.out
	d.cmd.Stderr = &d.out
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting adapiped: %w", err)
	}
	go func() { d.exitErr = d.cmd.Wait(); close(d.exited) }()
	live.Lock()
	if live.m == nil {
		live.m = map[*daemon]bool{}
	}
	live.m[d] = true
	live.Unlock()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return nil, fmt.Errorf("adapiped exited during start-up: %v\n%s", d.exitErr, d.out.String())
		default:
		}
		if b, err := os.ReadFile(addrFile); err == nil && len(b) > 0 {
			d.base = "http://" + strings.TrimSpace(string(b))
			if resp, err := http.Get(d.base + "/healthz"); err == nil {
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode == http.StatusOK {
					return d, nil
				}
			}
		}
		time.Sleep(time.Millisecond)
	}
	d.kill()
	return nil, fmt.Errorf("adapiped not healthy within 10s\n%s", d.out.String())
}

func (d *daemon) kill() {
	_ = d.cmd.Process.Kill()
	<-d.exited
	d.forget()
}

// forget drops an exited daemon from the live set.
func (d *daemon) forget() {
	live.Lock()
	delete(live.m, d)
	live.Unlock()
}

// stop sends SIGTERM and requires a clean exit within the default grace.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		d.kill()
		return fmt.Errorf("signalling adapiped: %w", err)
	}
	select {
	case <-d.exited:
	case <-time.After(shutdownGrace + 2*time.Second):
		d.kill()
		return fmt.Errorf("adapiped did not exit within %s of SIGTERM\n%s", shutdownGrace, d.out.String())
	}
	d.forget()
	if d.exitErr != nil {
		return fmt.Errorf("adapiped exited uncleanly after SIGTERM: %v\n%s", d.exitErr, d.out.String())
	}
	return nil
}

// promMetrics is a scrape of /metrics: sample name (labels included) → value.
type promMetrics map[string]float64

func parseProm(r io.Reader) promMetrics {
	m := promMetrics{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// scrape reads /metrics of the server at base.
func scrape(ctx context.Context, base string) (promMetrics, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, fmt.Errorf("scraping /metrics: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	return parseProm(resp.Body), nil
}

// ratio is a/b, or 0 when b is 0 (a layer that did nothing reports 0).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// procStat reads a process's peak resident set (MiB) and consumed CPU
// (seconds, user+system) from /proc; pid 0 means the harness itself.
func procStat(pid int) (peakRSSMiB, cpuSeconds float64, err error) {
	dir := "/proc/self"
	if pid != 0 {
		dir = "/proc/" + strconv.Itoa(pid)
	}
	status, err := os.ReadFile(dir + "/status")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, 0, fmt.Errorf("parsing VmHWM %q: %w", line, err)
			}
			peakRSSMiB = kb / 1024
		}
	}
	stat, err := os.ReadFile(dir + "/stat")
	if err != nil {
		return 0, 0, err
	}
	// Fields after the parenthesised command name: utime and stime are the
	// 14th and 15th fields of the line, in clock ticks (100 per second on
	// Linux).
	rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
	f := strings.Fields(rest)
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line %q", stat)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("parsing /proc stat cpu fields %q %q", f[11], f[12])
	}
	return peakRSSMiB, (ut + st) / 100, nil
}
