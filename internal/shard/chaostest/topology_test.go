// Package chaostest boots real cqad process topologies — N shard
// servers and a scatter-gather router — for fault-injection tests. It is the multi-shard successor of the
// store-smoke pattern: processes are real OS processes wired over
// loopback HTTP, killed with SIGKILL (never a graceful shutdown), and
// restarted on their original addresses so the router's fixed shard
// list keeps routing to them. The chaos tests live next to it.
package chaostest

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"
)

// BuildCqad builds the cqad binary into dir and returns its path. It
// resolves the command by module path, so it works from any working
// directory inside the module.
func BuildCqad(dir string) (string, error) {
	bin := filepath.Join(dir, "cqad")
	out, err := exec.Command("go", "build", "-o", bin, "cqa/cmd/cqad").CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("chaostest: building cqad: %v\n%s", err, out)
	}
	return bin, nil
}

// Proc is one managed cqad process. Kill sends SIGKILL; Start runs it
// (again) with the same arguments, so a killed shard restarts on its
// reserved port with its original data directory and recovers from its
// own WAL.
type Proc struct {
	Name string // role label: "shard0", "router"
	URL  string // base URL (fixed across restarts)

	bin      string
	args     []string
	addrFile string
	logFile  string

	cmd  *exec.Cmd
	done chan struct{} // closed when the current process has been reaped
}

// Start launches the process and waits until it serves on its address.
func (p *Proc) Start() error {
	if p.Alive() {
		return fmt.Errorf("chaostest: %s already running", p.Name)
	}
	_ = os.Remove(p.addrFile)
	logf, err := os.OpenFile(p.logFile, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(p.bin, p.args...)
	cmd.Stdout = logf
	cmd.Stderr = logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("chaostest: starting %s: %w", p.Name, err)
	}
	done := make(chan struct{})
	go func() {
		_ = cmd.Wait()
		logf.Close()
		close(done)
	}()
	p.cmd, p.done = cmd, done

	// The addr file appears once the listener is bound; the port is
	// reserved, so the address it names is p.URL.
	deadline := time.Now().Add(15 * time.Second)
	for time.Now().Before(deadline) {
		if b, err := os.ReadFile(p.addrFile); err == nil && len(b) > 0 {
			return nil
		}
		select {
		case <-done:
			log, _ := os.ReadFile(p.logFile)
			return fmt.Errorf("chaostest: %s exited before listening:\n%s", p.Name, log)
		case <-time.After(20 * time.Millisecond):
		}
	}
	_ = p.Kill()
	return fmt.Errorf("chaostest: %s did not listen within 15s", p.Name)
}

// Kill SIGKILLs the process and reaps it. Killing a dead process is a
// no-op.
func (p *Proc) Kill() error {
	if p.cmd == nil {
		return nil
	}
	_ = p.cmd.Process.Kill()
	<-p.done
	p.cmd = nil
	return nil
}

// Alive reports whether the process is running.
func (p *Proc) Alive() bool {
	if p.cmd == nil {
		return false
	}
	select {
	case <-p.done:
		return false
	default:
		return true
	}
}

// WaitHealthy polls GET /healthz until it answers 200 or the deadline
// passes.
func (p *Proc) WaitHealthy(d time.Duration) error {
	deadline := time.Now().Add(d)
	client := &http.Client{Timeout: time.Second}
	for time.Now().Before(deadline) {
		resp, err := client.Get(p.URL + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(25 * time.Millisecond)
	}
	return fmt.Errorf("chaostest: %s not healthy within %s", p.Name, d)
}

// BootOptions configures a topology.
type BootOptions struct {
	// Bin is the cqad binary (see BuildCqad).
	Bin string
	// Dir is the scratch directory for data dirs, addr files, and logs.
	Dir string
	// Shards is the shard server count; ≤ 0 selects 4.
	Shards int
	// Durable gives every shard its own -data directory, so a SIGKILLed
	// shard recovers from its WAL on restart.
	Durable bool
}

// Topology is a booted process set: Shards[i] serve slices, Router
// scatter-gathers over them.
type Topology struct {
	Shards []*Proc
	Router *Proc
}

// Boot reserves one loopback port per process, starts the shard
// servers and the router, and waits until every process serves.
// Callers must Close the topology.
func Boot(opt BootOptions) (*Topology, error) {
	if opt.Shards <= 0 {
		opt.Shards = 4
	}
	ports, err := reservePorts(opt.Shards + 1)
	if err != nil {
		return nil, err
	}
	tp := &Topology{}
	fail := func(err error) (*Topology, error) {
		tp.Close()
		return nil, err
	}
	newProc := func(name string, port int, args ...string) *Proc {
		addrFile := filepath.Join(opt.Dir, name+".addr")
		return &Proc{
			Name:     name,
			URL:      fmt.Sprintf("http://127.0.0.1:%d", port),
			bin:      opt.Bin,
			addrFile: addrFile,
			logFile:  filepath.Join(opt.Dir, name+".log"),
			args: append([]string{
				"-addr", fmt.Sprintf("127.0.0.1:%d", port),
				"-addr-file", addrFile,
			}, args...),
		}
	}

	shardURLs := make([]string, opt.Shards)
	for i := 0; i < opt.Shards; i++ {
		var args []string
		if opt.Durable {
			args = []string{"-data", filepath.Join(opt.Dir, fmt.Sprintf("shard%d-data", i))}
		}
		p := newProc(fmt.Sprintf("shard%d", i), ports[i], args...)
		tp.Shards = append(tp.Shards, p)
		shardURLs[i] = p.URL
		if err := p.Start(); err != nil {
			return fail(err)
		}
	}

	tp.Router = newProc("router", ports[opt.Shards], "-route", strings.Join(shardURLs, ","))
	if err := tp.Router.Start(); err != nil {
		return fail(err)
	}
	for _, p := range tp.all() {
		if err := p.WaitHealthy(10 * time.Second); err != nil {
			return fail(err)
		}
	}
	return tp, nil
}

func (tp *Topology) all() []*Proc {
	out := append([]*Proc(nil), tp.Shards...)
	if tp.Router != nil {
		out = append(out, tp.Router)
	}
	return out
}

// Close SIGKILLs every process in the topology.
func (tp *Topology) Close() {
	for _, p := range tp.all() {
		_ = p.Kill()
	}
}

// reservePorts binds n loopback listeners on ephemeral ports, records
// the ports, and closes the listeners. The tiny window between close
// and the cqad bind is the standard addr-file trade-off; a clash fails
// the Start loudly rather than silently.
func reservePorts(n int) ([]int, error) {
	listeners := make([]net.Listener, 0, n)
	defer func() {
		for _, l := range listeners {
			l.Close()
		}
	}()
	ports := make([]int, n)
	for i := 0; i < n; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		listeners = append(listeners, l)
		ports[i] = l.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}
