package main

import (
	"bytes"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// clockTick is USER_HZ, the unit of utime/stime in /proc/<pid>/stat; it
// is 100 on every Linux architecture Go supports.
const clockTick = 100

// pinnedEnv tells the re-executed driver which processor it and its
// servers are confined to (pin_linux.go); nprocEnv how many processors
// there were before that.
const (
	pinnedEnv = "CQA_BENCH_CPU"
	nprocEnv  = "CQA_BENCH_NPROC"
)

// processors is how many processors the run had.
func processors() int {
	if n, err := strconv.Atoi(os.Getenv(nprocEnv)); err == nil {
		return n
	}
	return runtime.NumCPU()
}

// buildBinary builds a main package of the working tree into dir.
func buildBinary(dir, pkg string) (string, error) {
	bin := filepath.Join(dir, filepath.Base(pkg))
	out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
	}
	return bin, nil
}

// proc is one cqad process started by the benchmark.
type proc struct {
	name string
	url  string
	cmd  *exec.Cmd
	done chan struct{} // closed once the process has been reaped
}

// startCqad launches cqad with GOMAXPROCS=1 on a free loopback port and
// returns once the listener is bound. Its output goes to <dir>/<name>.log.
func startCqad(bin, dir, name string, args ...string) (*proc, error) {
	addrFile := filepath.Join(dir, name+".addr")
	_ = os.Remove(addrFile)
	logf, err := os.OpenFile(filepath.Join(dir, name+".log"), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0", "-addr-file", addrFile}, args...)...)
	cmd.Stdout, cmd.Stderr = logf, logf
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.SysProcAttr = childAttr()
	if err := cmd.Start(); err != nil {
		logf.Close()
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, done: make(chan struct{})}
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(p.done)
	}()
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); {
		if b, err := os.ReadFile(addrFile); err == nil && bytes.HasSuffix(b, []byte("\n")) {
			p.url = "http://" + strings.TrimSpace(string(b))
			return p, nil
		}
		select {
		case <-p.done:
			return nil, fmt.Errorf("%s exited before listening; see %s", name, logf.Name())
		case <-time.After(time.Millisecond):
		}
	}
	p.kill()
	return nil, fmt.Errorf("%s did not listen within 15s; see %s", name, logf.Name())
}

// kill sends SIGKILL and waits until the process has ended.
func (p *proc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// waitReady polls GET /readyz until it answers 200.
func waitReady(c *http.Client, url string) error {
	var last error
	for deadline := time.Now().Add(15 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		resp, err := c.Get(url + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
			err = fmt.Errorf("status %d", resp.StatusCode)
		}
		last = err
	}
	return fmt.Errorf("%s not ready: %v", url, last)
}

// parseStatCPU extracts utime+stime, in clock ticks, from the contents
// of /proc/<pid>/stat. The command name may itself hold spaces and
// parentheses, so fields are counted from the last ')'.
func parseStatCPU(stat string) (uint64, error) {
	i := strings.LastIndexByte(stat, ')')
	if i < 0 {
		return 0, fmt.Errorf("stat: no command field")
	}
	f := strings.Fields(stat[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("stat: %d fields after the command", len(f))
	}
	u, err := strconv.ParseUint(f[11], 10, 64) // field 14, utime
	if err != nil {
		return 0, fmt.Errorf("stat: utime: %w", err)
	}
	s, err := strconv.ParseUint(f[12], 10, 64) // field 15, stime
	if err != nil {
		return 0, fmt.Errorf("stat: stime: %w", err)
	}
	return u + s, nil
}

// parseStatusHWM extracts VmHWM, the peak resident set in kB, from the
// contents of /proc/<pid>/status.
func parseStatusHWM(status string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(rest)
			if len(f) != 2 || f[1] != "kB" {
				return 0, fmt.Errorf("status: malformed VmHWM line %q", line)
			}
			return strconv.ParseUint(f[0], 10, 64)
		}
	}
	return 0, fmt.Errorf("status: no VmHWM line")
}

// cpuMillis is the user+system CPU time all the processes have used.
func cpuMillis(procs []*proc) (float64, error) {
	var ticks uint64
	for _, p := range procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		t, err := parseStatCPU(string(b))
		if err != nil {
			return 0, err
		}
		ticks += t
	}
	return float64(ticks) * 1000 / clockTick, nil
}

// rssMB is the sum of the processes' peak resident sets.
func rssMB(procs []*proc) (float64, error) {
	var kb uint64
	for _, p := range procs {
		b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
		if err != nil {
			return 0, err
		}
		k, err := parseStatusHWM(string(b))
		if err != nil {
			return 0, err
		}
		kb += k
	}
	return float64(kb) / 1024, nil
}
